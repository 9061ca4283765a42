package core

// The SYNPA policy (§IV-B): its options, its construction and PlaceR, the
// one decision pipeline behind every SMT level. Step 1 inverts the
// interference model on the last quantum's samples, Step 2 predicts every
// pair's degradation, and Step 3 picks the cheapest co-schedule; only Step
// 3's solver depends on the level (groups.go). Every mutable decision-time
// structure lives in an Arena (arena.go).

import (
	"fmt"
	"math"

	"synpa/internal/grouping"
	"synpa/internal/machine"
	"synpa/internal/predcache"
)

// Matcher selects how the policy turns the pairwise degradation matrix into
// a placement at SMT2 (the Step 3 of §IV-B); every other level solves
// internal/grouping's set partition.
type Matcher int

const (
	// MatcherBlossom uses Edmonds' Blossom minimum-weight perfect
	// matching — the paper's choice [21].
	MatcherBlossom Matcher = iota
	// MatcherBruteForce enumerates all pairings (the combinatorial
	// explosion the paper avoids); kept for the overhead ablation.
	MatcherBruteForce
	// MatcherGreedy repeatedly takes the lightest remaining edge; a
	// cheaper, suboptimal baseline for the matcher ablation.
	MatcherGreedy
)

// String names the matcher for experiment output.
func (m Matcher) String() string {
	switch m {
	case MatcherBlossom:
		return "blossom"
	case MatcherBruteForce:
		return "brute-force"
	case MatcherGreedy:
		return "greedy"
	}
	return fmt.Sprintf("Matcher(%d)", int(m))
}

// PolicyOptions tune the SYNPA policy; the zero value plus a model gives the
// paper's configuration.
type PolicyOptions struct {
	// Extract converts PMU samples to category fractions. Defaults to
	// ThreeCategoryFractions.
	Extract Extractor
	// Matcher selects the pair-selection algorithm. Defaults to Blossom.
	Matcher Matcher
	// DisableInversion skips the model inversion and uses the measured
	// SMT fractions directly as ST estimates — an ablation quantifying
	// the value of §IV-B Step 1.
	DisableInversion bool
	// Smoothing is the exponential-moving-average weight given to the
	// previous quantum's ST estimate. The paper measures over 100 ms
	// quanta (~2·10⁸ cycles); the simulator's scaled quanta are ~10⁴×
	// shorter and correspondingly noisier, so smoothing substitutes for
	// the averaging the long hardware quantum provides (DESIGN.md §2).
	// Zero selects the default (0.5); negative disables smoothing.
	Smoothing float64
	// Hysteresis keeps the previous pairing unless the newly matched
	// pairing improves the predicted total degradation by more than this
	// relative fraction. It suppresses migration churn on measurement
	// noise (same noise-compensation argument as Smoothing). Zero selects
	// the default (0.01); negative disables hysteresis.
	Hysteresis float64
	// Inversion tunes the inversion solver; zero value uses defaults.
	Inversion InversionOptions
	// Cache configures the interference-prediction memo layer
	// (internal/predcache) behind the policy's Invert and PairDegradation
	// evaluations. The zero value enables exact-key caching, which is
	// bit-identical to uncached evaluation by construction; set
	// Cache.Disabled to evaluate the model directly every quantum.
	Cache predcache.Options
	// Name overrides the policy name in experiment output.
	Name string
}

// Policy is the SYNPA thread-to-core allocation policy (§IV-B). Every
// quantum it estimates each application's ST behaviour by inverting the
// interference model on the previous quantum's PMU samples, predicts the
// degradation of every candidate pair with the forward model, and picks
// the most synergistic co-schedule: a minimum-weight perfect matching at
// SMT2, a minimum-cost set partition at any other level.
//
// A Policy is read-mostly after construction; every mutable decision-time
// structure lives in an Arena (see arena.go). Place serves the classic
// single-threaded machine.Policy surface through the policy's default
// arena; concurrent callers hold their own arenas and call PlaceR.
type Policy struct {
	model *Model
	opt   PolicyOptions

	// The memoized model evaluations (read-only closures over model+opt).
	invertFn func(a, b []float64) predcache.Inversion
	pairFn   func(a, b []float64) float64

	// shared is the optional concurrent memo behind every arena; nil
	// means each arena owns private caches (the classic configuration).
	shared *predcache.Shared
	// def is the default arena behind the non-reentrant Place surface.
	def Arena
}

var _ machine.Policy = (*Policy)(nil)

// NewPolicy builds a SYNPA policy around a trained model.
func NewPolicy(m *Model, opt PolicyOptions) (*Policy, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if opt.Extract == nil {
		opt.Extract = ThreeCategoryFractions
	}
	if opt.Inversion.MaxOuter == 0 {
		opt.Inversion = DefaultInversion()
	}
	switch {
	case opt.Smoothing == 0:
		opt.Smoothing = 0.5
	case opt.Smoothing < 0:
		opt.Smoothing = 0
	case opt.Smoothing >= 1:
		return nil, fmt.Errorf("core: smoothing %v must be below 1", opt.Smoothing)
	}
	switch {
	case opt.Hysteresis == 0:
		// Phase transitions of the phase-flipping applications move the
		// predicted total degradation by >3 %, while the spread between
		// near-equivalent complementary pairings is ~0.5 %; the default
		// threshold sits between the two.
		opt.Hysteresis = 0.015
	case opt.Hysteresis < 0:
		opt.Hysteresis = 0
	case opt.Hysteresis >= 1:
		return nil, fmt.Errorf("core: hysteresis %v must be below 1", opt.Hysteresis)
	}
	p := &Policy{model: m, opt: opt}
	p.invertFn = func(a, b []float64) predcache.Inversion {
		ca, cb, ok := p.model.Invert(a, b, p.opt.Inversion)
		return predcache.Inversion{A: ca, B: cb, Converged: ok}
	}
	p.pairFn = p.model.PairDegradation
	p.initArena(&p.def)
	return p, nil
}

// MustPolicy is NewPolicy that panics on error, for experiment wiring where
// the model is known valid.
func MustPolicy(m *Model, opt PolicyOptions) *Policy {
	p, err := NewPolicy(m, opt)
	if err != nil {
		panic(err)
	}
	return p
}

// Name identifies the policy configuration.
func (p *Policy) Name() string {
	if p.opt.Name != "" {
		return p.opt.Name
	}
	return "SYNPA"
}

// Model exposes the policy's interference model.
func (p *Policy) Model() *Model { return p.model }

// LastSTEstimates returns the ST category estimates computed for the most
// recent placement decision (per application) through the default arena,
// or nil before any. The rows are backed by a double buffer the arena
// reuses: they stay valid until the next Place call; copy them to retain
// longer.
func (p *Policy) LastSTEstimates() [][]float64 { return p.def.lastST }

// CacheStats returns the interference-prediction memo layer's traffic
// counters for the default arena's inversion and pair-degradation caches
// (its view-local counts when a shared cache is installed).
func (p *Policy) CacheStats() (invert, pair predcache.Stats) {
	return p.def.CacheStats()
}

// Place implements machine.Policy: PlaceR through the policy's default
// arena — the single-threaded surface every simulator engine uses.
func (p *Policy) Place(st *machine.QuantumState) machine.Placement {
	return p.PlaceR(&p.def, st)
}

// PlaceR is the reentrant placement decision: all mutable state lives in
// the caller's arena, so any number of goroutines may call PlaceR on one
// policy concurrently as long as each holds its own Arena. It runs the
// paper's pipeline at every SMT level; only Step 3's solver depends on the
// level (see solve).
func (p *Policy) PlaceR(a *Arena, st *machine.QuantumState) machine.Placement {
	n, level := st.NumApps, st.ThreadsPerCore()
	if st.Samples == nil || st.Prev == nil || len(st.Samples) < n {
		return arrivalOrderPlacement(n, st.NumCores)
	}

	// Step 1: estimate each application's ST category vector. An app
	// running alone measured ST behaviour already; one sharing a core is
	// inverted against its co-runners. At SMT2 a pair is one inversion
	// filling both rows (Invert is not bitwise symmetric, so this is not
	// two half-inversions); in larger groups each member is inverted
	// against the mean of its co-runners, the pairwise model's first-order
	// aggregate. An over-full Prev group (library input) is estimated
	// alone. The estimate matrix is double-buffered across quanta and
	// inversions are memoized (internal/predcache): a hit implies
	// bit-identical inputs, so the copied result is bit-identical to a
	// fresh inversion.
	if cap(a.frac) < n {
		a.frac = make([][]float64, n)
	}
	frac := a.frac[:n]
	est := a.newEstMatrix(n, p.model.K())
	for i := range frac {
		frac[i] = p.opt.Extract(st.Samples[i], st.DispatchWidth)
		copy(est[i], frac[i])
		normalize(est[i])
	}
	before := a.Groups(st.Prev, n, st.NumCores)
	for _, g := range before {
		switch {
		case p.opt.DisableInversion || len(g) == 1 || len(g) > level:
			// Estimated alone: the normalised fractions stand.
		case level == 2 && len(g) == 2:
			inv := a.inv.Get(frac[g[0]], frac[g[1]], p.invertFn)
			copy(est[g[0]], inv.A)
			copy(est[g[1]], inv.B)
		default:
			if cap(a.mean) < len(frac[g[0]]) {
				a.mean = make([]float64, len(frac[g[0]]))
			}
			mean := a.mean[:len(frac[g[0]])]
			for _, i := range g {
				CoRunnerMean(mean, frac, g, i)
				copy(est[i], a.inv.Get(frac[i], mean, p.invertFn).A)
			}
		}
	}
	p.smoothAndRemember(a, st, est)

	// Step 2: predict the degradation of every candidate pair. The matrix
	// is reused across quanta and predictions are memoized.
	w := a.w.get(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cost := a.pair.Get(est[i], est[j], p.pairFn)
			if math.IsNaN(cost) || math.IsInf(cost, 0) {
				cost = 1e6
			}
			w[i][j], w[j][i] = cost, cost
		}
	}

	// Step 3: the cheapest co-schedule. The previous placement is reusable
	// only when every app has a core and no core is over-full.
	groups, err := p.solve(a, w, st.NumCores, level)
	reusable := a.fullyPlaced(st.Prev, n, st.NumCores, level)
	if err != nil {
		// Solving cannot fail on a feasible live set; if it somehow does,
		// keep the previous placement rather than crash the manager.
		if reusable {
			return st.Prev[:n].Clone()
		}
		return arrivalOrderPlacement(n, st.NumCores)
	}
	// Hysteresis: only migrate when the predicted gain is material. Both
	// groupings are canonical, so they are priced in the same order.
	if p.opt.Hysteresis > 0 && reusable {
		prevCost := grouping.PartitionCost(w, before)
		if prevCost-grouping.PartitionCost(w, groups) < p.opt.Hysteresis*prevCost {
			return st.Prev[:n].Clone()
		}
	}
	return a.placeGroups(groups, n, st.NumCores, st.Prev)
}

// smoothAndRemember applies the identity-aware exponential smoothing to the
// fresh ST estimates and records them (with their stable identities) in the
// arena for the next quantum.
func (p *Policy) smoothAndRemember(a *Arena, st *machine.QuantumState, est [][]float64) {
	if s := p.opt.Smoothing; s > 0 && a.lastST != nil {
		for i := range est {
			prev := a.prevEstimate(appID(st, i))
			if prev == nil || len(prev) != len(est[i]) {
				continue
			}
			for k := range est[i] {
				est[i][k] = (1-s)*est[i][k] + s*prev[k]
			}
		}
	}
	a.lastST = est
	a.estCur = 1 - a.estCur // est came from the other half of the double buffer
	a.lastIDs = a.lastIDs[:0]
	for i := range est {
		a.lastIDs = append(a.lastIDs, appID(st, i))
	}
}

// appID resolves application i's stable identity (dynamic runs hand the
// live set's identities in AppIDs; closed runs use positions).
func appID(st *machine.QuantumState, i int) int {
	if st.AppIDs != nil && i < len(st.AppIDs) {
		return st.AppIDs[i]
	}
	return i
}

// fullyPlaced reports whether each of the n applications has a real core in
// p and no core holds more than level of them — i.e. p[:n] is feasible and
// reusable as-is for the next quantum. An over-full Prev from a library
// caller therefore never comes back as the answer.
func (a *Arena) fullyPlaced(p machine.Placement, n, numCores, level int) bool {
	if n == 0 || len(p) < n {
		return false
	}
	load := a.coreScratch(numCores)
	for _, c := range p[:n] {
		if c < 0 || c >= numCores {
			return false
		}
		if load[c]++; load[c] > level {
			return false
		}
	}
	return true
}

// greedyMatch repeatedly pairs the lightest remaining edge.
func greedyMatch(w [][]float64) []int {
	n := len(w)
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	for {
		best := math.Inf(1)
		bi, bj := -1, -1
		for i := 0; i < n; i++ {
			if mate[i] >= 0 {
				continue
			}
			for j := i + 1; j < n; j++ {
				if mate[j] < 0 && w[i][j] < best {
					best, bi, bj = w[i][j], i, j
				}
			}
		}
		if bi < 0 {
			return mate
		}
		mate[bi], mate[bj] = bj, bi
	}
}

// arrivalOrderPlacement reproduces the initial assignment the paper
// describes for Linux (§VI-C): application k and k+cores share core k.
func arrivalOrderPlacement(numApps, numCores int) machine.Placement {
	p := make(machine.Placement, numApps)
	for i := range p {
		p[i] = i % numCores
	}
	return p
}
