package core

import (
	"bytes"
	"testing"

	"synpa/internal/machine"
	"synpa/internal/pmu"
	"synpa/internal/xrand"
)

// FuzzReadModelJSON checks the model loader on arbitrary bytes: the input
// either fails to load, or the loaded model builds a policy whose PlaceR
// answers a fixed valid query with a feasible placement and no panic.
func FuzzReadModelJSON(f *testing.F) {
	var paper bytes.Buffer
	if err := WriteModelJSON(&paper, PaperCoefficients()); err != nil {
		f.Fatal(err)
	}
	f.Add(paper.Bytes())
	f.Add([]byte(`{"categories":["a","b","c"],"coefficients":[` +
		`{"alpha":1e308,"beta":-1e308,"gamma":0,"rho":0},{"alpha":0,"beta":1,"gamma":0,"rho":0},` +
		`{"alpha":0,"beta":0,"gamma":1e300,"rho":1e300}]}`))
	f.Add([]byte(`{"categories":["a"],"coefficients":[{"alpha":1,"beta":1,"gamma":1,"rho":1}]}`))
	f.Add([]byte(`{"categories":[],"coefficients":[]}`))

	st := &machine.QuantumState{NumApps: 4, NumCores: 2, DispatchWidth: 4,
		Prev: machine.Placement{0, 0, 1, 1}, Samples: []pmu.Counters{
			sampleWith(9000, 12000, 500, 7600),
			sampleWith(9000, 11000, 7500, 600),
			sampleWith(9000, 12500, 400, 7800),
			sampleWith(9000, 11500, 7000, 800),
		}}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadModelJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		p, err := NewPolicy(m, PolicyOptions{})
		if err != nil {
			t.Fatalf("loaded model rejected by NewPolicy: %v", err)
		}
		if got := p.PlaceR(p.NewArena(), st); got.Validate(st.NumCores, 2) != nil {
			t.Fatalf("infeasible placement %v", got)
		}
	})
}

// FuzzPlaceR checks PlaceR's invariant on arbitrary query shapes at SMT
// levels 1–4: any Prev (over-full, longer or shorter than the live set,
// Unplaced or off-machine entries), any Samples length and random samples.
// PlaceR must never panic, and whenever the live set fits the machine
// (n ≤ cores·level) it must answer a placement of length n that passes
// Placement.Validate. Each prev byte is one Prev entry, read as a signed
// core index modulo cores+2; an empty prev is a cold query.
func FuzzPlaceR(f *testing.F) {
	// (level, cores, n, prev, samples, seed, matcher, hysteresis)
	f.Add(uint8(2), uint8(2), uint8(3), []byte{0, 0, 1, 1}, uint8(3), uint64(1), uint8(0), true)
	f.Add(uint8(4), uint8(2), uint8(3), []byte{0, 0, 1, 1}, uint8(3), uint64(1), uint8(0), true)
	f.Add(uint8(2), uint8(2), uint8(3), []byte{0, 0, 1}, uint8(2), uint64(2), uint8(0), true)
	f.Add(uint8(2), uint8(2), uint8(4), []byte{0, 0, 0, 0}, uint8(4), uint64(3), uint8(0), true)
	f.Add(uint8(2), uint8(2), uint8(4), []byte{1, 1, 1, 0}, uint8(4), uint64(4), uint8(1), true)
	f.Add(uint8(4), uint8(2), uint8(5), []byte{0, 0, 0, 0, 0}, uint8(5), uint64(5), uint8(0), true)
	f.Add(uint8(3), uint8(3), uint8(7), []byte{0, 0, 1, 0xff, 2, 2, 5}, uint8(7), uint64(6), uint8(2), false)
	f.Add(uint8(1), uint8(4), uint8(4), []byte{0, 1, 2, 3}, uint8(4), uint64(7), uint8(0), true)

	var policies [3]*Policy
	for m := range policies {
		policies[m] = MustPolicy(PaperCoefficients(), PolicyOptions{Matcher: Matcher(m)})
	}
	noHyst := MustPolicy(PaperCoefficients(), PolicyOptions{Hysteresis: -1})
	f.Fuzz(func(t *testing.T, level, cores, n uint8, prev []byte, samples uint8, seed uint64, matcher uint8, hyst bool) {
		L, c := 1+int(level%4), 1+int(cores%6)
		st := &machine.QuantumState{
			NumApps: int(n) % (c*L + 3), NumCores: c, SMTLevel: L, DispatchWidth: 4,
		}
		if len(prev) > 0 {
			st.Prev = make(machine.Placement, len(prev))
			for i, b := range prev {
				st.Prev[i] = int(int8(b)) % (c + 2)
			}
		}
		rng := xrand.New(seed)
		st.Samples = make([]pmu.Counters, int(samples)%(st.NumApps+2))
		for i := range st.Samples {
			stalls := uint64(rng.Intn(9_000))
			fe := uint64(float64(stalls) * rng.Float64())
			st.Samples[i] = sampleWith(10_000, uint64(rng.Intn(12_000)), fe, stalls-fe)
		}
		p := policies[int(matcher)%len(policies)]
		if !hyst {
			p = noHyst
		}
		got := p.PlaceR(p.NewArena(), st)
		if st.NumApps <= c*L {
			if len(got) != st.NumApps {
				t.Fatalf("placement %v has length %d, want %d", got, len(got), st.NumApps)
			}
			if err := got.Validate(c, L); err != nil {
				t.Fatalf("infeasible placement %v: %v", got, err)
			}
		}
	})
}
