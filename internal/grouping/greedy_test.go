package grouping

import (
	"reflect"
	"testing"

	"synpa/internal/xrand"
)

// solveGreedyReference is the direct (non-incremental) solver the
// production solveGreedy must reproduce bit-for-bit: identical seeding,
// identical candidate scan order, and per-candidate deltas computed
// directly from the weight matrix.
func solveGreedyReference(w [][]float64, maxGroups, level int) *Result {
	n := len(w)
	bins := make([][]int, maxGroups)
	for i := 0; i < n; i++ {
		best, bestBin := 0.0, -1
		for b := range bins {
			if len(bins[b]) >= level {
				continue
			}
			d := addDelta(w, bins[b], i)
			if bestBin < 0 || d < best {
				best, bestBin = d, b
			}
		}
		bins[bestBin] = append(bins[bestBin], i)
	}
	const eps = 1e-12
	for round := 0; round < localSearchRounds; round++ {
		bestDelta := -eps
		kind := 0
		var mA, mFrom, mB, mTo int
		for fb := range bins {
			for ai := range bins[fb] {
				a := bins[fb][ai]
				rem := removeDelta(w, bins[fb], ai)
				for tb := range bins {
					if tb == fb || len(bins[tb]) >= level {
						continue
					}
					if d := rem + addDelta(w, bins[tb], a); d < bestDelta {
						bestDelta, kind = d, 1
						mA, mFrom, mTo = ai, fb, tb
					}
				}
			}
		}
		for fb := range bins {
			for tb := fb + 1; tb < len(bins); tb++ {
				for ai := range bins[fb] {
					for bi := range bins[tb] {
						if d := swapDelta(w, bins[fb], ai, bins[tb], bi); d < bestDelta {
							bestDelta, kind = d, 2
							mA, mFrom, mB, mTo = ai, fb, bi, tb
						}
					}
				}
			}
		}
		switch kind {
		case 1:
			a := bins[mFrom][mA]
			bins[mFrom] = append(bins[mFrom][:mA], bins[mFrom][mA+1:]...)
			bins[mTo] = append(bins[mTo], a)
		case 2:
			bins[mFrom][mA], bins[mTo][mB] = bins[mTo][mB], bins[mFrom][mA]
		default:
			return finish(w, bins, "greedy")
		}
	}
	return finish(w, bins, "greedy")
}

// randomMatrix builds a symmetric non-negative cost matrix in the
// degradation range the policy produces (~[2, 4] per pair).
func randomMatrix(rng *xrand.RNG, n int) [][]float64 {
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 2 + 2*rng.Float64()
			w[i][j], w[j][i] = v, v
		}
	}
	return w
}

// TestGreedyIncrementalMatchesReference pins the incremental local search
// to the direct reference implementation across sizes, levels and group
// counts: identical groups and bit-identical costs.
func TestGreedyIncrementalMatchesReference(t *testing.T) {
	rng := xrand.New(0xD1FF)
	for _, n := range []int{3, 5, 8, 13, 21, 34, 48} {
		for _, level := range []int{2, 3, 4} {
			maxGroups := (n + level - 1) / level
			for pad := 0; pad < 2; pad++ {
				mg := maxGroups + pad // pad adds slack bins (solo groups allowed)
				for rep := 0; rep < 4; rep++ {
					w := randomMatrix(rng, n)
					got := solveGreedy(w, mg, level)
					want := solveGreedyReference(w, mg, level)
					if !reflect.DeepEqual(got.Groups, want.Groups) {
						t.Fatalf("n=%d level=%d mg=%d rep=%d: groups diverge\n got %v\nwant %v",
							n, level, mg, rep, got.Groups, want.Groups)
					}
					if got.Cost != want.Cost {
						t.Fatalf("n=%d level=%d mg=%d rep=%d: cost %v != %v",
							n, level, mg, rep, got.Cost, want.Cost)
					}
				}
			}
		}
	}
}
