package grouping

import (
	"math"
	"math/bits"
)

// solveExact is the exact subset dynamic program: dp[g][mask] is the minimum
// cost of partitioning the applications in mask into exactly g groups of at
// most level members. To enumerate every partition once, the group that
// covers a mask's lowest set bit is chosen at each step; the answer is the
// cheapest dp[g][full] over g <= maxGroups. Time is O(n · 2ⁿ · C(n, level−1))
// and memory O(maxGroups · 2ⁿ), practical to n ≈ 16.
func solveExact(w [][]float64, maxGroups, level int) *Result {
	n := len(w)
	full := 1<<n - 1
	sz := full + 1
	maxG := maxGroups
	if maxG > n {
		maxG = n
	}
	inf := math.MaxFloat64
	dp := make([]float64, (maxG+1)*sz)
	choice := make([]int32, (maxG+1)*sz)
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0 // zero groups cover the empty mask

	// members holds the group under construction (excluding the anchor
	// bit); restBits the candidate bits of the current mask.
	members := make([]int, 0, level)
	restBits := make([]int, 0, n)

	for g := 1; g <= maxG; g++ {
		prevRow := dp[(g-1)*sz : g*sz]
		row := dp[g*sz : (g+1)*sz]
		chRow := choice[g*sz : (g+1)*sz]
		for mask := 1; mask <= full; mask++ {
			anchor := bits.TrailingZeros(uint(mask))
			rest := mask &^ (1 << anchor)
			restBits = restBits[:0]
			for r := rest; r != 0; r &= r - 1 {
				restBits = append(restBits, bits.TrailingZeros(uint(r)))
			}
			best, bestS := inf, 0

			// try recursively extends the group {anchor} ∪ members by
			// bits from restBits[start:], carrying the accumulated
			// intra-group pairwise cost.
			var try func(start int, sub int, cost float64)
			try = func(start int, sub int, cost float64) {
				s := sub | 1<<anchor
				gc := cost
				if sub == 0 {
					gc = SoloCost
				}
				if prev := prevRow[mask&^s]; prev != inf {
					if tot := prev + gc; tot < best {
						best, bestS = tot, s
					}
				}
				if len(members) == level-1 {
					return
				}
				for bi := start; bi < len(restBits); bi++ {
					b := restBits[bi]
					add := w[anchor][b]
					for _, m := range members {
						add += w[m][b]
					}
					members = append(members, b)
					try(bi+1, sub|1<<b, cost+add)
					members = members[:len(members)-1]
				}
			}
			try(0, 0, 0)
			row[mask] = best
			chRow[mask] = int32(bestS)
		}
	}

	// Pick the cheapest group count (ties to the fewest groups).
	bestG, bestCost := 0, inf
	for g := 1; g <= maxG; g++ {
		if c := dp[g*sz+full]; c < bestCost {
			bestCost, bestG = c, g
		}
	}

	// Reconstruct.
	var groups [][]int
	mask := full
	for g := bestG; g >= 1 && mask != 0; g-- {
		s := int(choice[g*sz+mask])
		var grp []int
		for r := s; r != 0; r &= r - 1 {
			grp = append(grp, bits.TrailingZeros(uint(r)))
		}
		groups = append(groups, grp)
		mask &^= s
	}
	return finish(w, groups, "exact")
}
