package core

import (
	"bytes"
	"testing"

	"synpa/internal/machine"
	"synpa/internal/pmu"
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
