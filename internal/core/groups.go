package core

// Co-schedule groups: the view of a placement as co-resident groups that
// Step 1 and the serving layer read, SYNPA's Step 3 solver, and the mapping
// of solved groups onto cores. At SMT2 Step 3 is the paper's minimum-weight
// perfect matching (§IV-B); at any other level it is the weighted
// set-partition of the follow-up policies ("A New Family of Thread to Core
// Allocation Policies for an SMT ARM Processor", arXiv:2507.00855), solved
// by internal/grouping. Both minimise the same objective — a group costs
// the sum of its members' pairwise predicted degradations, a solo app
// grouping.SoloCost — so everything around the solver is one pipeline.

import (
	"synpa/internal/grouping"
	"synpa/internal/machine"
	"synpa/internal/matching"
	"synpa/internal/perfstat"
)

// Groups returns the co-resident groups of place's first n applications on
// numCores cores in canonical order: members ascending, groups ordered by
// their smallest member. Applications without a core on the machine
// (Unplaced or out of range) belong to no group. The view is built in the
// arena's scratch and stays valid until the next Groups or PlaceR call on
// the arena.
func (a *Arena) Groups(place machine.Placement, n, numCores int) [][]int {
	place = place[:min(n, len(place))]
	slot := a.coreScratch(numCores) // 1 + group index per core, 0 for none
	sizes := a.sizes[:0]
	for _, c := range place {
		if c < 0 || c >= numCores {
			continue
		}
		if slot[c] == 0 {
			sizes = append(sizes, 0)
			slot[c] = len(sizes)
		}
		sizes[slot[c]-1]++
	}
	if cap(a.members) < len(place) {
		a.members = make([]int, len(place))
	}
	groups, off := a.groups[:0], 0
	for _, size := range sizes {
		groups = append(groups, a.members[off:off:off+size])
		off += size
	}
	for i, c := range place {
		if c >= 0 && c < numCores {
			g := slot[c] - 1
			groups[g] = append(groups[g], i)
		}
	}
	a.sizes, a.groups = sizes, groups
	return groups
}

// CoRunnerMean writes into dst the mean of rows[j] over the members j of
// group other than i, summed in group order, and returns the number of
// co-runners; dst holds a mean only when that count is positive. dst must
// be as long as the rows.
func CoRunnerMean(dst []float64, rows [][]float64, group []int, i int) int {
	clear(dst)
	co := 0
	for _, j := range group {
		if j == i {
			continue
		}
		for k, v := range rows[j] {
			dst[k] += v
		}
		co++
	}
	if co > 1 {
		for k := range dst {
			dst[k] /= float64(co)
		}
	}
	return co
}

// solve is Step 3: the cheapest co-schedule of the applications behind w on
// numCores cores of level threads each, as canonical groups. At SMT2 it
// runs the configured matcher on w padded with idle slots; at any other
// level it solves the set partition (at level 1 that is forced
// singletons). The arena's match memo answers repeated matrices:
// hysteresis holds co-runner sets, and with them the pair-memoized weight
// matrices, stable for long stretches, so steady state answers the solve
// with a hash lookup. The returned groups are shared with the memo and
// must not be modified.
func (p *Policy) solve(a *Arena, w [][]float64, numCores, level int) ([][]int, error) {
	t0 := perfstat.PhaseClock()
	defer perfstat.PhaseAdd(perfstat.PhaseMatching, t0)
	return a.mch.GetMatrix(uint64(numCores)<<32|uint64(level), w, func() ([][]int, error) {
		if level == 2 {
			return p.matchPairs(a, w, numCores)
		}
		res, err := grouping.Partition(w, numCores, level, grouping.Options{})
		if err != nil {
			return nil, err
		}
		return res.Groups, nil
	})
}

// matchPairs solves SMT2's Step 3 as a minimum-weight perfect matching on
// 2·numCores vertices: the live applications plus virtual idle slots. A
// real application paired with an idle slot runs alone (grouping.SoloCost)
// and two idle slots form an empty core (cost 0), so an odd or partial live
// set still has a perfect matching, and its cost is the partition cost of
// the pairs it induces.
func (p *Policy) matchPairs(a *Arena, w [][]float64, numCores int) ([][]int, error) {
	n, total := len(w), 2*numCores
	if n > total {
		return nil, grouping.ErrInfeasible
	}
	pad := a.pad.get(total)
	for i := 0; i < total; i++ {
		for j := i + 1; j < total; j++ {
			cost := 0.0
			switch {
			case j < n:
				cost = w[i][j]
			case i < n:
				cost = grouping.SoloCost
			}
			pad[i][j], pad[j][i] = cost, cost
		}
	}
	var mate []int
	var err error
	switch p.opt.Matcher {
	case MatcherBruteForce:
		mate, _, err = matching.BruteForceMinWeightPerfect(pad)
	case MatcherGreedy:
		mate = greedyMatch(pad)
	default:
		mate, _, err = a.mws.MinWeightMatching(pad)
	}
	if err != nil {
		return nil, err
	}
	members := make([]int, 0, n)
	groups := make([][]int, 0, n)
	for i, m := range mate[:n] {
		if m >= 0 && m < i {
			continue // listed with its smaller partner
		}
		start := len(members)
		members = append(members, i)
		if m > i && m < n {
			members = append(members, m)
		}
		groups = append(groups, members[start:])
	}
	return groups, nil
}

// placeGroups maps solved groups onto cores, preferring each group's
// previous core to minimise migrations (a group that stays put keeps its
// pipeline state).
func (a *Arena) placeGroups(groups [][]int, numApps, numCores int, prev machine.Placement) machine.Placement {
	place := make(machine.Placement, numApps)
	for i := range place {
		place[i] = -1
	}
	used := a.coreScratch(numCores)
	take := func(g []int, c int) {
		for _, m := range g {
			place[m] = c
		}
		used[c] = 1
	}

	// First pass: groups that can stay on a previous core of one member.
	for _, g := range groups {
		for _, member := range g {
			if member >= len(prev) {
				continue
			}
			if c := prev[member]; c >= 0 && c < numCores && used[c] == 0 {
				take(g, c)
				break
			}
		}
	}
	// Second pass: remaining groups take the lowest free core.
	next := 0
	for _, g := range groups {
		if place[g[0]] >= 0 {
			continue
		}
		for next < numCores && used[next] != 0 {
			next++
		}
		if next >= numCores {
			break // cannot happen: groups <= cores
		}
		take(g, next)
	}
	// Defensive: any unplaced app (impossible in normal operation) goes to
	// core 0.
	for i := range place {
		if place[i] < 0 {
			place[i] = 0
		}
	}
	return place
}
