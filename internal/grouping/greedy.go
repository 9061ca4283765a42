package grouping

// The greedy solver: a cheapest-marginal-cost seeding pass followed by
// steepest-descent local search over single-application moves and pairwise
// swaps. Deterministic (fixed scan order, strict improvement) and always
// feasible — the seeding fills maxGroups capacity-level bins, which exist
// because Partition has already checked n <= maxGroups·level. The property
// tests bound its cost from below by the exact DP's optimum.
//
// The local search evaluates move candidates incrementally: sumTo caches
// each application's attachment cost to each bin, so a candidate move costs
// O(1) instead of O(level), and an *applied* move or swap recomputes only
// the two bins it touched instead of re-summing any full group cost. The
// cached evaluations are bit-identical to the direct addDelta/removeDelta
// sums — the cache accumulates the same weights in the same order (see
// the equivalence notes on refresh) — so the incremental solver applies
// exactly the moves the direct one would (differential test in
// greedy_test.go).

// localSearchRounds caps the improvement loop; every applied move strictly
// decreases the partition cost, so the cap is a safety net, not a tuning
// knob.
const localSearchRounds = 1000

func solveGreedy(w [][]float64, maxGroups, level int) *Result {
	n := len(w)
	bins := make([][]int, maxGroups)

	// --- seeding: apps in index order, cheapest marginal bin first ------
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

	// sumTo[a*maxGroups+b] caches Σ_{x ∈ bins[b], x ≠ a} w[x][a], summed in
	// bin storage order. Equivalence with the direct deltas is exact:
	// addDelta's loop visits the same members in the same order (a is never
	// in the target bin, so the x ≠ a skip never fires there), and
	// removeDelta's negated skip-one sum equals -sumTo because IEEE
	// negation commutes with round-to-nearest ((0-w₁)-w₂-… ≡ -((w₁+w₂)+…)).
	// The len-2 removeDelta case SoloCost - w[p][q] matches SoloCost - sumTo by the
	// matrix symmetry checkMatrix enforces.
	sumTo := make([]float64, n*maxGroups)
	refresh := func(b int) {
		bin := bins[b]
		for a := 0; a < n; a++ {
			s := 0.0
			for _, x := range bin {
				if x != a {
					s += w[x][a]
				}
			}
			sumTo[a*maxGroups+b] = s
		}
	}
	for b := range bins {
		refresh(b)
	}
	addD := func(b, i int) float64 {
		switch len(bins[b]) {
		case 0:
			return SoloCost
		case 1:
			return sumTo[i*maxGroups+b] - SoloCost
		}
		return sumTo[i*maxGroups+b]
	}
	remD := func(b, a int) float64 {
		switch len(bins[b]) {
		case 1:
			return -SoloCost
		case 2:
			return SoloCost - sumTo[a*maxGroups+b]
		}
		return -sumTo[a*maxGroups+b]
	}

	// --- steepest-descent local search ----------------------------------
	const eps = 1e-12
	for round := 0; round < localSearchRounds; round++ {
		bestDelta := -eps
		kind := 0 // 1 = move, 2 = swap
		var mA, mFrom, mB, mTo int
		// Single-app moves (including into empty bins: the app goes solo).
		for fb := range bins {
			for ai := range bins[fb] {
				a := bins[fb][ai]
				rem := remD(fb, a)
				for tb := range bins {
					if tb == fb || len(bins[tb]) >= level {
						continue
					}
					if d := rem + addD(tb, a); d < bestDelta {
						bestDelta, kind = d, 1
						mA, mFrom, mTo = ai, fb, tb
					}
				}
			}
		}
		// Pairwise swaps. A candidate swap already touches only the two
		// groups involved (≤ 2(level−1) weights); its interleaved
		// difference sum has no order-preserving O(1) decomposition, so it
		// stays direct.
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
			refresh(mFrom)
			refresh(mTo)
		case 2:
			bins[mFrom][mA], bins[mTo][mB] = bins[mTo][mB], bins[mFrom][mA]
			refresh(mFrom)
			refresh(mTo)
		default:
			return finish(w, bins, "greedy")
		}
	}
	return finish(w, bins, "greedy")
}

// addDelta is the cost increase of adding app i to bin.
func addDelta(w [][]float64, bin []int, i int) float64 {
	switch len(bin) {
	case 0:
		return SoloCost
	case 1:
		return w[bin[0]][i] - SoloCost
	}
	d := 0.0
	for _, x := range bin {
		d += w[x][i]
	}
	return d
}

// removeDelta is the cost change of removing bin[ai] from bin.
func removeDelta(w [][]float64, bin []int, ai int) float64 {
	a := bin[ai]
	switch len(bin) {
	case 1:
		return -SoloCost
	case 2:
		return SoloCost - w[bin[0]][bin[1]]
	}
	d := 0.0
	for xi, x := range bin {
		if xi != ai {
			d -= w[x][a]
		}
	}
	return d
}

// swapDelta is the cost change of exchanging ga[ai] and gb[bi] between
// groups ga and gb (group sizes are preserved, so solo terms cancel).
func swapDelta(w [][]float64, ga []int, ai int, gb []int, bi int) float64 {
	a, b := ga[ai], gb[bi]
	d := 0.0
	for xi, x := range ga {
		if xi != ai {
			d += w[x][b] - w[x][a]
		}
	}
	for xi, x := range gb {
		if xi != bi {
			d += w[x][a] - w[x][b]
		}
	}
	return d
}
