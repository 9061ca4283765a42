// Package predcache memoizes the SYNPA policy's per-quantum model
// evaluations — ST-vector inversions (core.Model.Invert), pairwise
// degradation predictions (core.Model.PairDegradation) and whole Blossom
// matchings — behind keys built from the bit patterns of their inputs.
//
// # Why a memo layer
//
// The policy re-runs the inversion, the full pairwise prediction matrix and
// the matching every scheduling quantum even though application behaviour
// barely moves between quanta: dynamic runs re-invoke the policy
// off-quantum with the same samples, hysteresis holds placements (and
// therefore co-runner sets) stable for long stretches, and the grouping
// cost matrix prices the same pairs across consecutive quanta. The memo
// turns each repeated evaluation into a hash lookup.
//
// # Bit-identity
//
// A key is the exact 64-bit IEEE pattern of every input component, so a
// hit implies the inputs are bit-identical to an earlier call. The
// memoized functions are pure and deterministic, so the stored result is
// bit-identical to what a fresh evaluation would return: memoized runs are
// bit-identical to uncached runs *by construction*, no tolerance argument
// needed. The argument survives concurrent sharing. Two goroutines racing
// on one cold key may both miss and both evaluate, but they evaluate the
// same pure function on bit-identical inputs, so whichever store lands
// publishes the same bits. Concurrency changes only *which* calls hit:
// the hit/miss counters (and reset timing) of a shared memo are
// schedule-dependent, which is why the engines exclude shared-memo counter
// deltas from worker-count-invariant traces.
//
// # Structure
//
// One type, Memo, serves every use. Keys hash (FNV-1a over the key bytes)
// onto a power-of-two shard array; a one-shard memo skips the hash. Each
// shard is an independently locked map with its own deterministic overflow
// reset (a full clear at MaxEntries/shards: no LRU bookkeeping on the hot
// path, and a reset changes only speed, never results). Memoized functions
// run outside the shard lock, so the expensive Newton inversions never
// serialise on a shard.
//
// Callers reach a memo through Handles, which carry the key scratch and
// a local Stats so per-caller traffic stays observable. A Handle is not
// safe for concurrent use; the Memo behind it is. The policy gives each
// request arena one-shard private memos, or handles onto a Shared pair of
// sharded memos that a whole fleet or server warms together.
//
// # Ownership
//
// Values are returned as stored and shared between hits: callers must not
// mutate them (the SYNPA policy copies inversions into its reusable
// estimate matrix before smoothing and only reads matchings).
package predcache

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
)

// MaxEntries bounds each memo's entry count; each shard clears fully when
// it holds MaxEntries/shards entries and a new key arrives.
const MaxEntries = 1 << 15

// DefaultShards is the shard count when NewShared is given 0 — enough to
// keep lock contention negligible at fleet worker counts without bloating
// the per-shard reset granularity.
const DefaultShards = 16

// Options configures a memo; the zero value gives the production default.
type Options struct {
	// Disabled turns the memo into a pass-through: every call evaluates
	// the function and no traffic is counted. It is the uncached
	// reference path of the differential tests.
	Disabled bool
}

// Stats counts memo traffic.
type Stats struct {
	Hits, Misses uint64
	// Resets counts deterministic full clears on shard overflow.
	Resets uint64
}

// Inversion is one memoized model inversion: the estimated ST vectors of
// both members of a pair and whether the solver converged.
type Inversion struct {
	A, B      []float64
	Converged bool
}

// Memo is an exact-key, sharded, concurrency-safe memo of a pure function
// with results of type V. Reach it through Handle.
type Memo[V any] struct {
	mask        uint64
	maxPerShard int
	shards      []shard[V] // nil when disabled
}

type shard[V any] struct {
	mu sync.Mutex
	m  map[string]V

	// Traffic counters: bumped by handle traffic, read lock-free by
	// Memo.Stats while other goroutines keep hitting the shard.
	hits, misses, resets atomic.Uint64
}

// NewMemo builds a memo with the given shard count, rounded up to a power
// of two (at least 1).
func NewMemo[V any](opt Options, shards int) *Memo[V] {
	return newMemo[V](opt, shards, MaxEntries)
}

// newMemo is NewMemo with an explicit entry bound, so tests can force
// overflow resets.
func newMemo[V any](opt Options, shards, maxEntries int) *Memo[V] {
	n := 1
	for n < shards {
		n <<= 1
	}
	m := &Memo[V]{mask: uint64(n - 1)}
	if opt.Disabled {
		return m
	}
	m.maxPerShard = max(maxEntries/n, 1)
	m.shards = make([]shard[V], n)
	for i := range m.shards {
		m.shards[i].m = make(map[string]V)
	}
	return m
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// shard selects the key's home shard by FNV-1a over the key bytes.
func (m *Memo[V]) shard(key []byte) *shard[V] {
	if m.mask == 0 {
		return &m.shards[0]
	}
	h := uint64(fnvOffset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return &m.shards[h&m.mask]
}

// Stats sums the per-shard traffic counters. Callable concurrently with
// traffic; a snapshot taken mid-run may straddle in-flight lookups.
func (m *Memo[V]) Stats() Stats {
	var s Stats
	for i := range m.shards {
		sh := &m.shards[i]
		s.Hits += sh.hits.Load()
		s.Misses += sh.misses.Load()
		s.Resets += sh.resets.Load()
	}
	return s
}

// Entries counts the resident entries across all shards.
func (m *Memo[V]) Entries() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Handle derives a per-caller handle onto the memo.
func (m *Memo[V]) Handle() *Handle[V] { return &Handle[V]{m: m} }

// Handle is one caller's view of a Memo: it owns the key scratch and a
// local Stats, and forwards storage to the memo. Not safe for concurrent
// use — derive one per goroutine.
type Handle[V any] struct {
	m     *Memo[V]
	key   []byte
	stats Stats
}

// Stats returns this handle's own traffic counters (the whole memo's are
// on Memo.Stats).
func (h *Handle[V]) Stats() Stats { return h.stats }

// Entries counts the memo's resident entries — a memo-wide figure.
func (h *Handle[V]) Entries() int { return h.m.Entries() }

// Get returns fn(a, b), memoized under the bits of the ordered pair. The
// length prefix separates (a, b) splits unambiguously.
func (h *Handle[V]) Get(a, b []float64, fn func(a, b []float64) V) V {
	if h.m.shards == nil {
		return fn(a, b)
	}
	h.key = appendBits(append(h.key[:0], byte(len(a))), a)
	h.key = appendBits(h.key, b)
	sh, v, ok := h.lookup()
	if !ok {
		v = fn(a, b)
		h.store(sh, v)
	}
	return v
}

// GetMatrix returns fn() for a symmetric matrix w, memoized under tag, the
// vertex count and the bits of w's strict upper triangle (a solver reads
// nothing else: the diagonal is ignored and the lower triangle mirrors the
// upper). tag carries whatever else fn depends on, such as the machine
// shape. Errors pass through unstored.
func (h *Handle[V]) GetMatrix(tag uint64, w [][]float64, fn func() (V, error)) (V, error) {
	if h.m.shards == nil {
		return fn()
	}
	h.key = binary.LittleEndian.AppendUint64(h.key[:0], tag)
	h.key = binary.LittleEndian.AppendUint64(h.key, uint64(len(w)))
	for i := range w {
		h.key = appendBits(h.key, w[i][i+1:])
	}
	sh, v, ok := h.lookup()
	if !ok {
		var err error
		if v, err = fn(); err != nil {
			return v, err
		}
		h.store(sh, v)
	}
	return v, nil
}

// lookup finds the key in h's scratch, counting the hit or miss.
func (h *Handle[V]) lookup() (*shard[V], V, bool) {
	sh := h.m.shard(h.key)
	sh.mu.Lock()
	v, ok := sh.m[string(h.key)]
	sh.mu.Unlock()
	if ok {
		sh.hits.Add(1)
		h.stats.Hits++
	} else {
		sh.misses.Add(1)
		h.stats.Misses++
	}
	return sh, v, ok
}

// store publishes v under the key in h's scratch, clearing the shard first
// if it is full and the key is new.
func (h *Handle[V]) store(sh *shard[V], v V) {
	sh.mu.Lock()
	if _, ok := sh.m[string(h.key)]; !ok && len(sh.m) >= h.m.maxPerShard {
		clear(sh.m)
		sh.resets.Add(1)
		h.stats.Resets++
	}
	sh.m[string(h.key)] = v
	sh.mu.Unlock()
}

// appendBits appends the exact bit pattern of every component of v.
func appendBits(key []byte, v []float64) []byte {
	for _, x := range v {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(x))
	}
	return key
}

// Shared is the concurrent memo a fleet or server installs behind every
// policy arena: one sharded inversion memo and one sharded pair memo,
// served to many goroutines at once.
type Shared struct {
	invert *Memo[Inversion]
	pair   *Memo[float64]
}

// NewShared builds a shared memo pair with the given shard count (rounded
// up to a power of two; 0 selects DefaultShards).
func NewShared(opt Options, shards int) *Shared {
	if shards <= 0 {
		shards = DefaultShards
	}
	return &Shared{invert: NewMemo[Inversion](opt, shards), pair: NewMemo[float64](opt, shards)}
}

// Invert returns the shared inversion memo.
func (s *Shared) Invert() *Memo[Inversion] { return s.invert }

// Pair returns the shared pair-degradation memo.
func (s *Shared) Pair() *Memo[float64] { return s.pair }

// Stats sums both memos' traffic counters.
func (s *Shared) Stats() (invert, pair Stats) { return s.invert.Stats(), s.pair.Stats() }

// Entries counts both memos' resident entries.
func (s *Shared) Entries() (invert, pair int) { return s.invert.Entries(), s.pair.Entries() }
