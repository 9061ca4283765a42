package predcache

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func evalPair(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func TestPairCacheHitsAndValues(t *testing.T) {
	c := NewMemo[float64](Options{}, 1).Handle()
	a := []float64{0.3, 0.5, 0.2}
	b := []float64{0.1, 0.1, 0.8}
	calls := 0
	fn := func(x, y []float64) float64 { calls++; return evalPair(x, y) }

	v1 := c.Get(a, b, fn)
	v2 := c.Get(a, b, fn)
	if v1 != v2 {
		t.Fatalf("cached value %v != fresh %v", v2, v1)
	}
	if calls != 1 {
		t.Fatalf("fn called %d times for two identical lookups", calls)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit 1 miss", s)
	}
	// Order matters: (b, a) is a distinct key.
	c.Get(b, a, fn)
	if calls != 2 {
		t.Fatalf("swapped arguments did not miss (calls=%d)", calls)
	}
	// A one-ulp perturbation must miss at exact precision.
	a2 := append([]float64(nil), a...)
	a2[0] = math.Nextafter(a2[0], 1)
	c.Get(a2, b, fn)
	if calls != 3 {
		t.Fatal("one-ulp perturbation hit the exact-key cache")
	}
}

func TestPairCacheDisabled(t *testing.T) {
	c := NewMemo[float64](Options{Disabled: true}, 1).Handle()
	calls := 0
	fn := func(x, y []float64) float64 { calls++; return 1 }
	c.Get([]float64{1}, []float64{2}, fn)
	c.Get([]float64{1}, []float64{2}, fn)
	if calls != 2 {
		t.Fatalf("disabled cache memoized (calls=%d)", calls)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("disabled cache counted traffic: %+v", s)
	}
}

func TestPairCacheReset(t *testing.T) {
	c := newMemo[float64](Options{}, 1, 4).Handle()
	fn := func(x, y []float64) float64 { return x[0] + y[0] }
	for i := 0; i < 10; i++ {
		c.Get([]float64{float64(i)}, []float64{1}, fn)
	}
	s := c.Stats()
	if s.Resets == 0 {
		t.Fatalf("no reset after overflowing the entry bound: %+v", s)
	}
	// Values stay correct across resets.
	if v := c.Get([]float64{3}, []float64{1}, fn); v != 4 {
		t.Fatalf("post-reset value %v", v)
	}
}

func TestInvertCacheSharesResults(t *testing.T) {
	c := NewMemo[Inversion](Options{}, 1).Handle()
	calls := 0
	fn := func(a, b []float64) Inversion {
		calls++
		return Inversion{A: []float64{a[0] * 2}, B: []float64{b[0] * 2}, Converged: true}
	}
	a, b := []float64{1.5}, []float64{2.5}
	r1 := c.Get(a, b, fn)
	r2 := c.Get(a, b, fn)
	if calls != 1 {
		t.Fatalf("fn called %d times", calls)
	}
	if !r1.Converged || !r2.Converged {
		t.Fatal("converged flag lost")
	}
	if &r1.A[0] != &r2.A[0] || &r1.B[0] != &r2.B[0] {
		t.Fatal("hit did not return the shared cached slices")
	}
	if r1.A[0] != 3 || r1.B[0] != 5 {
		t.Fatalf("cached values %v %v", r1.A, r1.B)
	}
}

func TestKeySeparatesSplits(t *testing.T) {
	// (a=[x], b=[y,z]) and (a=[x,y], b=[z]) must not collide: the length
	// prefix disambiguates the split.
	c := NewMemo[float64](Options{}, 1).Handle()
	calls := 0
	fn := func(x, y []float64) float64 { calls++; return float64(len(x)) }
	v1 := c.Get([]float64{1}, []float64{2, 3}, fn)
	v2 := c.Get([]float64{1, 2}, []float64{3}, fn)
	if calls != 2 {
		t.Fatal("split ambiguity: second lookup hit the first key")
	}
	if v1 == v2 {
		t.Fatalf("values collided: %v %v", v1, v2)
	}
}

// TestMatchMemoKeysUpperTriangle checks the matrix key: it reads only the
// strict upper triangle, so the diagonal and the lower triangle never
// split entries, while a one-ulp change above the diagonal, the vertex
// count or the tag does. Errors pass through and are never stored.
func TestMatchMemoKeysUpperTriangle(t *testing.T) {
	c := NewMemo[[]int](Options{}, 1).Handle()
	calls := 0
	fn := func() ([]int, error) { calls++; return []int{1, 0}, nil }
	w := [][]float64{{0, 0.5}, {0.5, 0}}
	m1, _ := c.GetMatrix(1, w, fn)
	w[0][0], w[1][0] = 9, 9 // outside the key
	m2, _ := c.GetMatrix(1, w, fn)
	if calls != 1 || !reflect.DeepEqual(m1, m2) {
		t.Fatalf("diagonal/lower-triangle change missed the memo (calls=%d)", calls)
	}
	w[0][1] = math.Nextafter(w[0][1], 1)
	c.GetMatrix(1, w, fn)
	if calls != 2 {
		t.Fatal("upper-triangle change hit the memo")
	}
	// A 3-vertex matrix whose upper triangle has the same two leading
	// values must not collide with the 2-vertex key, nor the empty matrix
	// with the one-vertex one.
	c.GetMatrix(1, [][]float64{{0, 0.5, 0}, {0.5, 0, 0}, {0, 0, 0}}, fn)
	if calls != 3 {
		t.Fatal("vertex count did not separate keys")
	}
	c.GetMatrix(1, nil, fn)
	c.GetMatrix(1, [][]float64{{0}}, fn)
	if calls != 5 {
		t.Fatal("empty and one-vertex matrices collided")
	}
	c.GetMatrix(2, w, fn)
	if calls != 6 {
		t.Fatal("tag did not separate keys")
	}

	boom := errors.New("boom")
	failing := func() ([]int, error) { calls++; return nil, boom }
	w2 := [][]float64{{0, 7}, {7, 0}}
	for i := 0; i < 2; i++ {
		if _, err := c.GetMatrix(1, w2, failing); err != boom {
			t.Fatalf("error not passed through: %v", err)
		}
	}
	if calls != 8 || c.Entries() != 6 {
		t.Fatalf("failed evaluation was stored (calls=%d entries=%d)", calls, c.Entries())
	}
}
