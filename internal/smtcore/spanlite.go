// Active span — the lean tier of the fast-forward engine.
//
// This tier executes long runs of active cycles on span-local copies of the
// per-thread state, transcribing step()'s per-cycle arithmetic operation for
// operation (same expressions, same float evaluation order, threads visited
// in the same rotating-priority order) at every SMT level. The state lives in
// fixed [MaxSMTLevel] locals packed over the active slots only, and the
// rotating priority is read from a precomputed order table, so the cycle body
// needs no division and no idle-slot checks. The regime changes that the
// reference loop handles per cycle are handled *inline* instead of ending the
// span at each of them:
//
//   - a consumed event window fires its stall event on the spot: the thread
//     state is synced back, the shared fireEvent runs (same RNG stream,
//     same arithmetic), and the span continues with the reloaded state;
//   - outstanding misses count down in a per-cycle timer stage mirroring
//     step(), and the expiry drains iqHeld exactly where step() drains it;
//   - phase boundaries are detected by a local countdown of the distance
//     InstsToPhaseBoundary reported, and the crossing refreshes the
//     contention rates at the end of the crossing cycle — the same point
//     step() refreshes them — before the span continues;
//   - a thread that goes miss-blocked freezes — its cascade collapses to
//     the fixed zero-dispatch signature — once dispatchBlockedOwn proves
//     the blocked-ness invariant until the expiry (the thread's own state
//     cannot change while it neither dispatches, retires nor fires events).
//
// A span therefore ends only at the cycle limit or when every active
// thread has gone dormant (the bulk tier in fastforward.go then skips the
// dormant window in O(1)). PMU counters accumulate in liteCounters and
// flush once per span. The differential tests in fastforward_test.go and
// level_test.go pin every operation to the reference loop at SMT levels 1–4.
package smtcore

import "synpa/internal/pmu"

// liteCounters accumulates one thread's per-cycle PMU signatures over a
// span. Frontend stalls are split by cause (feICnt/feBCnt) because one span
// can cover stalls of both kinds.
type liteCounters struct {
	spec, ret                        uint64
	feICnt, feBCnt                   uint64
	slotsCnt, robCnt, ldqCnt, stqCnt uint64
	iqCnt, otherCnt, memLatCnt       uint64
}

// liteState is one active thread's span-local microstate plus the rate
// parameters the cycle body reads, hoisted out of the thread struct and
// reloaded after every rate refresh.
type liteState struct {
	t *thread

	rob, win, fe, miss, kind int
	iq, ldq, stq             float64
	acc, frac                float64
	base                     int
	loadR, storeR, depF      float64
	invD, invL, invS         float64

	pb     int64  // dispatched instructions left before a phase boundary
	adv    uint64 // the part of cnt.spec already fed to AdvanceDispatched
	frozen bool   // miss-blocked with the blocked-ness proven invariant
	cnt    liteCounters
}

// load copies the thread's microstate into the span locals.
func (st *liteState) load() {
	t := st.t
	st.rob, st.win, st.fe, st.miss, st.kind = t.robHeld, t.window, t.feLeft, t.missLeft, t.feKind
	st.iq, st.ldq, st.stq = t.iqHeld, t.ldqHeld, t.stqHeld
	st.acc = t.ilpAcc
}

// sync writes the span-local microstate back to the thread struct.
func (st *liteState) sync() {
	t := st.t
	t.robHeld, t.window, t.feLeft, t.missLeft, t.feKind = st.rob, st.win, st.fe, st.miss, st.kind
	t.iqHeld, t.ldqHeld, t.stqHeld = st.iq, st.ldq, st.stq
	t.ilpAcc = st.acc
}

// loadRates copies the thread's contention-adjusted parameters and its
// distance to the next phase boundary.
func (st *liteState) loadRates() {
	t := st.t
	st.base, st.frac = t.ilpBase, t.ilpFrac
	st.loadR, st.storeR, st.depF = t.loadRatio, t.storeRatio, t.depFrac
	st.invD, st.invL, st.invS = t.invDepFrac, t.invLoadRatio, t.invStoreRatio
	st.pb = int64(t.inst.InstsToPhaseBoundary())
}

// runSpanLite executes up to limit cycles through the lean span engine,
// returning the number executed (0 only when limit is 0 or no application
// is bound).
func (c *Core) runSpanLite(limit uint64) uint64 {
	level := len(c.threads)
	if limit == 0 {
		return 0
	}

	// --- pack the active slots into span locals ---------------------------
	var sts [MaxSMTLevel]liteState
	var pos [MaxSMTLevel]int // slot -> packed position, -1 when idle
	na := 0
	for s := 0; s < level; s++ {
		pos[s] = -1
		t := &c.threads[s]
		if t.inst == nil {
			continue
		}
		pos[s] = na
		st := &sts[na]
		st.t = t
		st.load()
		st.loadRates()
		na++
	}
	if na == 0 {
		return 0
	}
	// ord[f] lists the active threads in step()'s visiting order for a
	// cycle whose priority starts at slot f. Packing preserves slot order,
	// so loops over act run in step()'s index order.
	var ord [MaxSMTLevel][MaxSMTLevel]*liteState
	for f := 0; f < level; f++ {
		o := 0
		for d := 0; d < level; d++ {
			s := f + d
			if s >= level {
				s -= level
			}
			if j := pos[s]; j >= 0 {
				ord[f][o] = &sts[j]
				o++
			}
		}
	}
	act := sts[:na]

	dispW, retireW := c.cfg.DispatchWidth, c.cfg.RetireWidth
	robSize := c.cfg.ROBSize
	robCap := c.robCap
	iqSizeF := float64(c.cfg.IQSize)
	ldqSizeF := float64(c.cfg.LDQSize)
	stqSizeF := float64(c.cfg.STQSize)
	iqCap := c.iqCap
	ldqCap, stqCap := c.ldqCap, c.stqCap
	ldqDead, stqDead := c.ldqDead, c.stqDead

	i := uint64(0)
	stallStreak := 0
	prio := c.prio
	iqShared, iqStale := 0.0, true

	for i < limit {
		i++
		order := ord[prio][:na]
		if prio++; prio == level {
			prio = 0
		}

		// --- retire stage and miss timers (mirror step) ------------------
		// One pass in priority order: a thread's retirement reads only its
		// own miss timer before the decrement, and each timer touches only
		// its own thread, so fusing step()'s two loops changes nothing.
		retireLeft := retireW
		robUsed := 0
		for _, st := range order {
			if st.miss > 0 {
				if st.miss--; st.miss == 0 {
					// Data returned: dependants issue, IQ drains.
					st.iq = 0
					st.frozen = false
					iqStale = true
				}
			} else if st.rob > 0 && retireLeft > 0 {
				k := st.rob
				if k > retireLeft {
					k = retireLeft
				}
				retireLeft -= k
				st.rob -= k
				if !ldqDead {
					st.ldq -= st.loadR * float64(k)
					if st.ldq < 0 {
						st.ldq = 0
					}
				}
				if !stqDead {
					st.stq -= st.storeR * float64(k)
					if st.stq < 0 {
						st.stq = 0
					}
				}
				if st.rob == 0 {
					st.ldq, st.stq = 0, 0
				}
				st.cnt.ret += uint64(k)
			}
			robUsed += st.rob
		}

		// --- dispatch stage (rotating priority, mirrors step) -------------
		slots := dispW
		crossed := false
		for _, st := range order {
			if st.frozen {
				// Miss-blocked with the blocked-ness proven invariant: the
				// supply dither still advances before the cascade discards
				// it, exactly as in step().
				st.acc += st.frac
				if st.acc >= 1 {
					st.acc--
				}
				st.cnt.memLatCnt++
				continue
			}
			if st.fe > 0 {
				st.fe--
				if st.kind == evICache {
					st.cnt.feICnt++
				} else {
					st.cnt.feBCnt++
				}
				continue
			}
			supply := st.base
			st.acc += st.frac
			if st.acc >= 1 {
				supply++
				st.acc--
			}
			k := supply
			cause := 0
			if st.win < k {
				k = st.win
			}
			if slots < k {
				k = slots
				if slots == 0 {
					cause = 1
				}
			}
			if free := robSize - robUsed; free < k {
				k = free
				if free <= 0 {
					k = 0
					cause = 2
				}
			}
			if free := robCap - st.rob; free < k {
				k = free
				if free <= 0 {
					k = 0
					cause = 2
				}
			}
			if iqStale {
				// Only dispatch under a miss and a miss expiry move iq, so
				// the shared free count is recomputed (in step()'s
				// subtraction order) only after one of them.
				iqShared = iqSizeF
				for q := range act {
					iqShared -= act[q].iq
				}
				iqStale = false
			}
			iqFree := iqShared
			if own := iqCap - st.iq; own < iqFree {
				iqFree = own
			}
			if iqFree < 1 {
				k = 0
				cause = 5
			} else if st.miss > 0 && st.depF > 0 {
				if lim := int(iqFree * st.invD); lim < k {
					k = lim
					if lim <= 0 {
						k = 0
						cause = 5
					}
				}
			}
			if !ldqDead && st.loadR > 0 && k > 0 {
				ldqFree := ldqSizeF
				for q := range act {
					ldqFree -= act[q].ldq
				}
				if own := ldqCap - st.ldq; own < ldqFree {
					ldqFree = own
				}
				if lim := int(ldqFree * st.invL); lim < k {
					k = lim
					if lim <= 0 {
						k = 0
						cause = 3
					}
				}
			}
			if !stqDead && st.storeR > 0 && k > 0 {
				stqFree := stqSizeF
				for q := range act {
					stqFree -= act[q].stq
				}
				if own := stqCap - st.stq; own < stqFree {
					stqFree = own
				}
				if lim := int(stqFree * st.invS); lim < k {
					k = lim
					if lim <= 0 {
						k = 0
						cause = 4
					}
				}
			}
			if k <= 0 {
				if st.miss > 0 {
					st.cnt.memLatCnt++
					// Zero-dispatch under an own miss: if the thread's own
					// partition caps alone block it, the outcome is
					// invariant until the expiry (nothing it does can
					// change its own state), so the cascade can freeze.
					st.sync()
					if c.dispatchBlockedOwn(st.t) {
						st.frozen = true
					}
				} else {
					st.cnt.countStall(cause)
				}
				continue
			}
			slots -= k
			robUsed += k
			st.rob += k
			if st.miss > 0 {
				st.iq += st.depF * float64(k)
				iqStale = true
			}
			if !ldqDead {
				st.ldq += st.loadR * float64(k)
			}
			if !stqDead {
				st.stq += st.storeR * float64(k)
			}
			st.cnt.spec += uint64(k)
			st.win -= k
			if st.pb -= int64(k); st.pb <= 0 {
				crossed = true
			}
			if st.win == 0 {
				// Window exhausted: fire the stall event exactly where
				// step() does, via the shared fireEvent on synced thread
				// state (same RNG stream).
				st.sync()
				st.t.fireEvent()
				st.load()
			}
		}

		// --- end of cycle -------------------------------------------------
		if crossed {
			// A phase boundary was crossed this cycle: advance the pending
			// dispatched counts (AdvanceDispatched is chunk-associative, so
			// the deferred advance equals step()'s per-dispatch advances)
			// and refresh the contention rates exactly where step() does —
			// at the end of the crossing cycle.
			for j := range act {
				act[j].advance()
			}
			c.refreshRates()
			for j := range act {
				act[j].loadRates()
			}
		}
		if slots < dispW {
			stallStreak = 0
			continue
		}
		// No dispatch this cycle. If every active thread is provably
		// dormant (frozen on a miss or frontend-starved), hand the window
		// to the bulk tier in fastforward.go, which skips it in O(1);
		// otherwise a short streak of contention-stalled cycles ends the
		// span so the bulk tier can re-screen.
		dormant := true
		for j := range act {
			if !act[j].frozen && act[j].fe == 0 {
				dormant = false
				break
			}
		}
		if stallStreak++; dormant || stallStreak >= 8 {
			break
		}
	}

	// --- flush --------------------------------------------------------------
	c.cycle += i
	c.prio = prio
	for j := range act {
		act[j].sync()
		act[j].flush(i)
	}
	return i
}

// countStall records one zero-dispatch cycle with step()'s cause
// attribution (1 slots, 2 ROB, 3 LDQ, 4 STQ, 5 IQ, else other).
func (cnt *liteCounters) countStall(cause int) {
	switch cause {
	case 1:
		cnt.slotsCnt++
	case 2:
		cnt.robCnt++
	case 3:
		cnt.ldqCnt++
	case 4:
		cnt.stqCnt++
	case 5:
		cnt.iqCnt++
	default:
		cnt.otherCnt++
	}
}

// flush writes the thread's accumulated counters over an n-cycle span to its
// bank and instance; only the still-pending dispatched count — the tail
// since the last inline phase sync — feeds AdvanceDispatched.
func (st *liteState) flush(n uint64) {
	t, cnt := st.t, &st.cnt
	b := t.bank
	b.Add(pmu.CPUCycles, n)
	if cnt.spec > 0 {
		b.Add(pmu.InstSpec, cnt.spec)
	}
	if cnt.ret > 0 {
		b.Add(pmu.InstRetired, cnt.ret)
		t.inst.Retired += cnt.ret
	}
	if fe := cnt.feICnt + cnt.feBCnt; fe > 0 {
		b.Add(pmu.StallFrontend, fe)
		if cnt.feICnt > 0 {
			b.Add(pmu.StallFEICache, cnt.feICnt)
		}
		if cnt.feBCnt > 0 {
			b.Add(pmu.StallFEBranch, cnt.feBCnt)
		}
	}
	if be := cnt.slotsCnt + cnt.robCnt + cnt.ldqCnt + cnt.stqCnt +
		cnt.iqCnt + cnt.otherCnt + cnt.memLatCnt; be > 0 {
		b.Add(pmu.StallBackend, be)
		if cnt.memLatCnt > 0 {
			b.Add(pmu.StallBEMemLat, cnt.memLatCnt)
		}
		if cnt.slotsCnt > 0 {
			b.Add(pmu.StallBESlots, cnt.slotsCnt)
		}
		if cnt.robCnt > 0 {
			b.Add(pmu.StallBEROB, cnt.robCnt)
		}
		if cnt.iqCnt > 0 {
			b.Add(pmu.StallBEIQ, cnt.iqCnt)
		}
		if cnt.ldqCnt > 0 {
			b.Add(pmu.StallBELDQ, cnt.ldqCnt)
		}
		if cnt.stqCnt > 0 {
			b.Add(pmu.StallBESTQ, cnt.stqCnt)
		}
	}
	st.advance()
}

// advance feeds the dispatched instructions counted since the last phase
// sync to AdvanceDispatched.
func (st *liteState) advance() {
	if d := st.cnt.spec - st.adv; d > 0 {
		st.t.inst.AdvanceDispatched(d)
		st.adv = st.cnt.spec
	}
}
