package predcache

import (
	"sync"
	"testing"
)

func TestSharedMatchesPrivateSemantics(t *testing.T) {
	s := NewShared(Options{}, 4)
	iv := s.Invert().Handle()
	pv := s.Pair().Handle()
	invCalls, pairCalls := 0, 0
	invFn := func(a, b []float64) Inversion {
		invCalls++
		return Inversion{A: []float64{a[0] * 2}, B: []float64{b[0] * 2}, Converged: true}
	}
	pairFn := func(a, b []float64) float64 { pairCalls++; return a[0] + b[0] }

	a, b := []float64{1.5}, []float64{2.5}
	r1 := iv.Get(a, b, invFn)
	r2 := iv.Get(a, b, invFn)
	if invCalls != 1 {
		t.Fatalf("invert fn called %d times for two identical lookups", invCalls)
	}
	if &r1.A[0] != &r2.A[0] || &r1.B[0] != &r2.B[0] {
		t.Fatal("hit did not return the shared cached slices")
	}
	if v1, v2 := pv.Get(a, b, pairFn), pv.Get(a, b, pairFn); v1 != v2 || pairCalls != 1 {
		t.Fatalf("pair memo broken: %v %v calls=%d", v1, v2, pairCalls)
	}

	// A second handle hits entries the first handle stored — the point of
	// sharing — while keeping its own local stats.
	iv2 := s.Invert().Handle()
	iv2.Get(a, b, invFn)
	if invCalls != 1 {
		t.Fatal("second handle missed an entry the first handle stored")
	}
	if st := iv2.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("handle-local stats %+v, want 1 hit 0 misses", st)
	}
	inv, pair := s.Stats()
	if inv.Hits != 2 || inv.Misses != 1 || pair.Hits != 1 || pair.Misses != 1 {
		t.Fatalf("shared stats invert=%+v pair=%+v", inv, pair)
	}
	if ei, ep := s.Entries(); ei != 1 || ep != 1 {
		t.Fatalf("entries invert=%d pair=%d, want 1 1", ei, ep)
	}
}

func TestSharedDisabledPassThrough(t *testing.T) {
	s := NewShared(Options{Disabled: true}, 0)
	iv := s.Invert().Handle()
	calls := 0
	fn := func(a, b []float64) Inversion {
		calls++
		return Inversion{A: a, B: b, Converged: true}
	}
	iv.Get([]float64{1}, []float64{2}, fn)
	iv.Get([]float64{1}, []float64{2}, fn)
	if calls != 2 {
		t.Fatalf("disabled shared cache memoized (calls=%d)", calls)
	}
	inv, pair := s.Stats()
	if inv != (Stats{}) || pair != (Stats{}) {
		t.Fatalf("disabled cache counted traffic: %+v %+v", inv, pair)
	}
}

func TestSharedShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultShards}, {1, 1}, {3, 4}, {16, 16}, {17, 32},
	} {
		if got := len(NewShared(Options{}, tc.in).pair.shards); got != tc.want {
			t.Errorf("NewShared(shards=%d) has %d shards, want %d", tc.in, got, tc.want)
		}
	}
}

func TestSharedPerShardReset(t *testing.T) {
	// 8 entries over 4 shards = 2 per shard: inserting many distinct keys
	// must trigger per-shard resets without losing correctness.
	s := &Shared{pair: newMemo[float64](Options{}, 4, 8)}
	pv := s.Pair().Handle()
	fn := func(a, b []float64) float64 { return a[0] + b[0] }
	for i := 0; i < 64; i++ {
		a := []float64{float64(i)}
		if v := pv.Get(a, []float64{1}, fn); v != float64(i)+1 {
			t.Fatalf("wrong value %v for key %d", v, i)
		}
	}
	pair := s.Pair().Stats()
	if pair.Resets == 0 {
		t.Fatalf("no shard reset after 64 inserts into an 8-entry cache: %+v", pair)
	}
	if ep := s.Pair().Entries(); ep > 8+len(s.pair.shards) {
		t.Fatalf("entries %d exceed the per-shard bound", ep)
	}
	// Values stay correct across resets.
	if v := pv.Get([]float64{3}, []float64{1}, fn); v != 4 {
		t.Fatalf("post-reset value %v", v)
	}
}

// TestSharedShardStress hammers one shared cache from many goroutines over
// an overlapping key set — the -race gate for the concurrent path — and
// checks every returned value is the pure function's value and the summed
// stats account for every Get.
func TestSharedShardStress(t *testing.T) {
	s := &Shared{invert: newMemo[Inversion](Options{}, 8, 256), pair: newMemo[float64](Options{}, 8, 256)}
	const goroutines = 8
	const perG = 2000
	const keys = 97 // overlapping working set, coprime with goroutines
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			iv := s.Invert().Handle()
			pv := s.Pair().Handle()
			invFn := func(a, b []float64) Inversion {
				return Inversion{A: []float64{a[0] * 2}, B: []float64{b[0] * 3}, Converged: true}
			}
			pairFn := func(a, b []float64) float64 { return a[0]*10 + b[0] }
			for i := 0; i < perG; i++ {
				k := float64((g*perG + i) % keys)
				a, b := []float64{k}, []float64{k + 1}
				r := iv.Get(a, b, invFn)
				if !r.Converged || r.A[0] != k*2 || r.B[0] != (k+1)*3 {
					errc <- &testError{k: k}
					return
				}
				if v := pv.Get(a, b, pairFn); v != k*10+k+1 {
					errc <- &testError{k: k}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	inv, pair := s.Stats()
	total := uint64(goroutines * perG)
	if inv.Hits+inv.Misses != total || pair.Hits+pair.Misses != total {
		t.Fatalf("stats do not account for all traffic: invert=%+v pair=%+v want %d each", inv, pair, total)
	}
	if inv.Hits == 0 || pair.Hits == 0 {
		t.Fatal("overlapping key set produced no hits")
	}
}

type testError struct{ k float64 }

func (e *testError) Error() string { return "wrong cached value under concurrency" }
