package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"synpa/internal/core"
	"synpa/internal/machine"
	"synpa/internal/obs"
	"synpa/internal/pmu"
	"synpa/internal/serve"
	"synpa/internal/smtcore"
	"synpa/internal/workload"
	"synpa/internal/xrand"
)

// serve-place: an open-loop generator sends POST /v1/place at fixed
// offered rates to an in-process placement server over loopback. Every
// body in a phase is a distinct query, so the server's prediction memos
// miss as they do under real traffic; each phase gets a freshly booted
// server, so bodies reused across phases miss too.
const (
	// serveBodies is the size of the distinct-query pool: at least the
	// requests of the longest phase.
	serveBodies = 2048
	// serveClients is the generator's goroutine and connection count.
	serveClients = 2
	// nominalRate is the fixed offered rate, below the knee, at which
	// place_p50_us and place_p99_us are measured: high enough that the
	// host's CPUs do not idle between requests, where waking an idle CPU
	// would dominate the round trip.
	nominalRate = 3000.0
	// phaseRequests is the size of one nominal phase and of one ladder
	// rung: enough for ten requests beyond its p99.
	phaseRequests = 1000
	// sloLimit is the latency limit on a rung's p99, timed from when each
	// request was due: a fifth of the paper's 100 ms scheduling quantum.
	sloLimit = 20 * time.Millisecond
)

// ladder is the fixed ladder of offered rates, in requests per second.
var ladder = []float64{2000, 2500, 3000, 3500, 4000, 4500, 5000, 5500, 6000, 6500, 7000, 7500, 8000, 9000, 10000}

type serveSetup struct {
	model    *core.Model
	bodies   [][]byte
	expected [][]byte
	// warm is a sample-less query: it opens the connections without
	// touching any memo.
	warm []byte
	// first is the server booted during set-up; it serves the first
	// phase.
	first *server
}

// placeQueries builds the distinct-query pool. Queries come from a
// saturating open-system run; each pool entry rescales one recorded
// query's PMU rows by seed-drawn factors within 1%, rounding down, which
// keeps every counter relation (a stall count never exceeds the cycles)
// and every category fraction to within rounding, while giving each
// query bits of its own.
func placeQueries(base []machine.QuantumState, n int, seed uint64) []*serve.PlaceRequest {
	rng := xrand.New(seed ^ 0xD1B54A32D192ED03)
	out := make([]*serve.PlaceRequest, n)
	for j := range out {
		q := serve.RequestFromState(&base[j%len(base)])
		for _, row := range q.Samples {
			s := 1 + 0.01*rng.Float64()
			for k, c := range row {
				row[k] = uint64(math.Floor(float64(c) * s))
			}
		}
		out[j] = q
	}
	return out
}

// answer is the in-process reference: PlaceOne on a fresh policy, encoded
// exactly as the server encodes its responses.
func answer(p *core.Policy, a *core.Arena, body []byte) ([]byte, error) {
	var q serve.PlaceRequest
	if err := json.Unmarshal(body, &q); err != nil {
		return nil, err
	}
	resp, err := serve.PlaceOne(p, a, &q)
	if err != nil {
		return nil, err
	}
	level := q.SMTLevel
	if level == 0 {
		level = smtcore.DefaultSMTLevel
	}
	if err := machine.Placement(resp.Placement).Validate(q.NumCores, level); err != nil {
		return nil, fmt.Errorf("reference placement infeasible: %w", err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// setupQueries trains the model, records the query log and computes the
// reference answers: the set-up shared by serve-place and place-replay.
func setupQueries(b *bench, n int) (*core.Model, [][]byte, [][]byte, error) {
	model, err := b.trainModel()
	if err != nil {
		return nil, nil, nil, err
	}
	tc := workload.NewTargetCache(machineConfig(4, 2), refQuanta, canonicalSeed)
	if err := warmPool(tc); err != nil {
		return nil, nil, nil, err
	}
	base, err := recordQueries(model, tc, b.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	ref, err := core.NewPolicy(model, core.PolicyOptions{})
	if err != nil {
		return nil, nil, nil, err
	}
	a := ref.NewArena()
	bodies := make([][]byte, n)
	expected := make([][]byte, n)
	for i, q := range placeQueries(base, n, b.seed) {
		if bodies[i], err = json.Marshal(q); err != nil {
			return nil, nil, nil, err
		}
		if expected[i], err = answer(ref, a, bodies[i]); err != nil {
			return nil, nil, nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	return model, bodies, expected, nil
}

func setupServe(b *bench) (*serveSetup, error) {
	model, bodies, expected, err := setupQueries(b, serveBodies)
	if err != nil {
		return nil, err
	}
	warm, err := json.Marshal(&serve.PlaceRequest{NumCores: 4, NumApps: 8})
	if err != nil {
		return nil, err
	}
	s := &serveSetup{model: model, bodies: bodies, expected: expected, warm: warm}
	if s.first, err = b.boot(s); err != nil {
		return nil, err
	}
	return s, nil
}

// server is one booted placement server: serve.New(...).Handler() behind
// an http.Server on a loopback listener, with the generator's clients.
type server struct {
	srv     *serve.Server
	reg     *obs.Registry
	hs      *http.Server
	done    chan error
	url     string
	clients []*http.Client

	mu      sync.Mutex
	handler []time.Duration // server-side CPU time of each placement request
}

// boot starts a fresh server (fresh memos, fresh registry) and opens one
// connection per client with the warm query.
func (b *bench) boot(s *serveSetup) (*server, error) {
	reg := obs.NewRegistry()
	srv, err := serve.New(s.model, serve.Config{SharedCache: true, Registry: reg})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sv := &server{
		srv:  srv,
		reg:  reg,
		done: make(chan error, 1),
		url:  "http://" + l.Addr().String() + "/v1/place",
	}
	sv.hs = &http.Server{Handler: b.measureHandler(sv, srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	go func() { sv.done <- sv.hs.Serve(l) }()
	for i := 0; i < serveClients; i++ {
		c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
		sv.clients = append(sv.clients, c)
		if _, err := post(c, sv.url, s.warm, 0, 0, 0); err != nil {
			sv.close()
			return nil, fmt.Errorf("warming connection %d: %w", i, err)
		}
	}
	return sv, nil
}

// close shuts the server down and waits for its Serve goroutine.
func (sv *server) close() {
	for _, c := range sv.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = sv.hs.Shutdown(ctx) // a drain timeout leaves nothing to clean up
	<-sv.done
}

// Request headers carrying the client span to the server-side span.
const (
	hdrSpan = "Perfbench-Span"
	hdrReq  = "Perfbench-Req"
	hdrLane = "Perfbench-Lane"
)

// measureHandler wraps the placement handler: it times each request's
// server-side CPU — the handler's goroutine stays locked to its thread for
// the request, so the thread CPU clock is the request's — and records a
// server-side span when tracing is on.
func (b *bench) measureHandler(sv *server, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		runtime.LockOSThread()
		c0, t0 := threadCPU(), time.Now()
		h.ServeHTTP(w, r)
		t1, c1 := time.Now(), threadCPU()
		runtime.UnlockOSThread()
		sv.mu.Lock()
		sv.handler = append(sv.handler, c1-c0)
		sv.mu.Unlock()
		if !b.traced {
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		lane, _ := strconv.Atoi(r.Header.Get(hdrLane))
		b.tr.record("serve.Handler", 0, parent, req, 100+lane, t0, t1)
	})
}

// post sends one body and returns the response body; a non-200 answer is
// an error.
func post(c *http.Client, url string, body []byte, span, req int64, lane int) ([]byte, error) {
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if span != 0 {
		hr.Header.Set(hdrSpan, strconv.FormatInt(span, 10))
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hr.Header.Set(hdrLane, strconv.Itoa(lane))
	}
	resp, err := c.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/place: %s", resp.Status)
	}
	return out, nil
}

// phase is the outcome of one open-loop phase.
type phase struct {
	rate    float64
	cpu     time.Duration   // process CPU time over the phase
	handler []time.Duration // server-side CPU time per request
	due     []time.Duration // response time from when the request was due
	svc     []time.Duration // response time from when it was sent
	late    []time.Duration // how late the generator's timer sent it
	sent    int
	failed  int
	backlog time.Duration // worst queueing wait over the last tenth of the phase
	err     error
}

// p99 is the phase's p99 latency from due time, a failed request counting
// as missing any limit.
func (p *phase) p99() float64 {
	us := micros(p.due)
	for i := 0; i < p.failed; i++ {
		us = append(us, math.Inf(1))
	}
	return quantile(us, 0.99)
}

// score is what a rung is held to, in microseconds: its p99 from due
// time, or its backlog at the end if that is worse (a growing backlog
// would push the p99 past any limit given a longer rung).
func (p *phase) score() float64 {
	return max(p.p99(), float64(p.backlog.Microseconds()))
}

// meetsSLO reports whether the phase's p99 meets the limit with no
// growing backlog and nothing failed.
func (p *phase) meetsSLO() bool {
	return p.failed == 0 && p.score() <= float64(sloLimit.Microseconds())
}

// openLoop offers rate requests per second for the given duration: request
// k is due at start + k/rate and goes out on client k mod serveClients,
// each client holding one connection with one request in flight. Each
// answer must byte-equal the in-process reference answer.
//
// Go timers on this kind of host wake up to a millisecond late, which
// would swamp sub-millisecond service times. So latency is computed on
// the schedule rather than on the timer: a request starts at its due time
// or when its connection's previous request would have completed,
// whichever is later, and takes its measured round trip (the Lindley
// recursion over measured service times). That keeps every wait a slow
// server imposes on later requests and drops only the generator's own
// timer lateness, which is reported as loadgen.late_us_p99.
func (b *bench) openLoop(s *serveSetup, sv *server, rate float64, dur time.Duration, parent int64) *phase {
	n := min(int(rate*dur.Seconds()), len(s.bodies))
	gap := time.Duration(float64(time.Second) / rate)
	ph := &phase{rate: rate, sent: n}
	parts := make([]phase, serveClients)
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for g := 0; g < serveClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pt := &parts[g]
			var free time.Time // when the connection's previous request completed, on the schedule
			for k := g; k < n; k += serveClients {
				due := start.Add(time.Duration(k) * gap)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				id := b.tr.id()
				t0 := time.Now()
				got, err := post(sv.clients[g], sv.url, s.bodies[k], id, int64(k), g)
				t1 := time.Now()
				b.tr.record("loadgen.request", id, parent, int64(k), g, t0, t1)
				begin := due
				if free.After(begin) {
					begin = free
				}
				free = begin.Add(t1.Sub(t0))
				if k >= n-n/10 {
					pt.backlog = max(pt.backlog, begin.Sub(due))
				}
				if err == nil && !bytes.Equal(got, s.expected[k]) {
					err = fmt.Errorf("request %d: answer differs from in-process PlaceOne", k)
				}
				if err != nil {
					pt.failed++
					if pt.err == nil {
						pt.err = err
					}
					continue
				}
				pt.due = append(pt.due, free.Sub(due))
				pt.svc = append(pt.svc, t1.Sub(t0))
				pt.late = append(pt.late, max(0, t0.Sub(begin)))
			}
		}(g)
	}
	wg.Wait()
	for _, pt := range parts {
		ph.due = append(ph.due, pt.due...)
		ph.svc = append(ph.svc, pt.svc...)
		ph.late = append(ph.late, pt.late...)
		ph.failed += pt.failed
		ph.backlog = max(ph.backlog, pt.backlog)
		if ph.err == nil {
			ph.err = pt.err
		}
	}
	return ph
}

// runPhase boots a fresh server (or takes the set-up's), runs one open-loop
// phase on it and shuts it down, counting every request against the gate.
func (b *bench) runPhase(s *serveSetup, rate float64, dur time.Duration, parent int64) (*phase, *server, error) {
	sv := s.first
	s.first = nil
	if sv == nil {
		var err error
		if sv, err = b.boot(s); err != nil {
			return nil, nil, err
		}
	}
	b.calibrate()
	c0 := processCPU()
	ph := b.openLoop(s, sv, rate, dur, parent)
	ph.cpu = processCPU() - c0
	if !b.traced {
		b.notePeak() // the server, its memos and the bodies are still referenced
	}
	sv.close()
	// The warm-up requests are the first of each connection.
	sv.mu.Lock()
	ph.handler = sv.handler[min(serveClients, len(sv.handler)):]
	sv.mu.Unlock()
	g := b.gate("requests")
	g.Attempted += int64(ph.sent)
	g.Failed += int64(ph.failed)
	if ph.err != nil && g.Detail == "" {
		g.Detail = ph.err.Error()
	}
	return ph, sv, nil
}

func runServe(b *bench) error {
	// Every set-up boots a server; the ones left unused are shut down
	// when the run ends, outside the timed set-up.
	var booted []**server
	defer func() {
		for _, sv := range booted {
			if *sv != nil {
				(*sv).close()
			}
		}
	}()
	s, err := repeatSetup(b, func() (*serveSetup, error) {
		s, err := setupServe(b)
		if s != nil {
			booted = append(booted, &s.first)
		}
		return s, err
	})
	if err != nil {
		return err
	}
	b.config["server"] = "serve.New(...).Handler() on 127.0.0.1, shared predcache, SMT2 4-core queries"
	b.config["clients"] = serveClients
	b.config["distinct_queries"] = len(s.bodies)
	b.config["nominal_rate"] = nominalRate
	b.config["slo_p99_us"] = sloLimit.Microseconds()
	b.config["ladder"] = ladder
	if b.traced {
		return b.tracedServe(s)
	}
	return b.measureServe(s)
}

// nominalPhases is how many nominal-rate phases a run measures; the
// latency figures are the medians of the phases' percentiles.
const nominalPhases = 16

// measureServe runs the nominal-rate phases, then sweeps the ladder until
// the window closes and reports the median sweep's highest rate at the
// limit.
func (b *bench) measureServe(s *serveSetup) error {
	start := time.Now()
	var p50s, p99s, cpu50s, cpu99s []float64
	var late, rtts []time.Duration
	var cpu float64
	answered := 0
	for i := 0; i < nominalPhases; i++ {
		ph, _, err := b.runPhase(s, nominalRate, phaseLength(nominalRate), 0)
		if err != nil {
			return err
		}
		p50s = append(p50s, quantile(micros(ph.due), 0.50))
		p99s = append(p99s, ph.p99())
		cpu50s = append(cpu50s, quantile(micros(ph.handler), 0.50))
		cpu99s = append(cpu99s, quantile(micros(ph.handler), 0.99))
		late = append(late, ph.late...)
		rtts = append(rtts, ph.svc...)
		cpu += ph.cpu.Seconds()
		answered += len(ph.due)
	}
	var maxes []float64
	var table []string
	for len(maxes) == 0 || time.Since(start) < b.window {
		rungs, err := b.sweep(s)
		if err != nil {
			return err
		}
		m := maxRateAtSLO(rungs)
		maxes = append(maxes, m)
		row := fmt.Sprintf("max %.0f/s:", m)
		for _, r := range rungs {
			row += fmt.Sprintf(" %.0f/s p50 %.0fus p99 %.0fus backlog %dus;", r.rate, quantile(micros(r.due), 0.5), r.p99(), r.backlog.Microseconds())
		}
		table = append(table, row)
	}
	maxQPS := median(maxes)
	b.config["sweeps"] = table

	k := b.scale()
	cpu50, cpu99 := median(cpu50s)*k, median(cpu99s)*k
	perCPU := ratio(float64(answered), cpu*k)
	b.e2e("throughput_per_cpu_s", perCPU, "1/cpu_s")
	b.e2e("op_cpu_us_p50", cpu50, "cpu_us")
	b.e2e("op_cpu_us_p99", cpu99, "cpu_us")
	b.named("requests_per_cpu_s", perCPU, "1/cpu_s", answered)
	b.named("place_cpu_us_p50", cpu50, "cpu_us", answered)
	b.named("place_cpu_us_p99", cpu99, "cpu_us", answered)
	b.named("place_p50_us", median(p50s), "us", answered)
	b.named("place_p99_us", median(p99s), "us", answered)
	b.named("max_qps_at_slo", maxQPS, "1/s", len(maxes))
	b.named("client_rtt_p50_us", quantile(micros(rtts), 0.50), "us", len(rtts))
	b.named("loadgen.late_us_p99", quantile(micros(late), 0.99), "us", len(late))
	return nil
}

// phaseLength is the duration of one phaseRequests-request phase at rate.
func phaseLength(rate float64) time.Duration {
	return time.Duration(phaseRequests / rate * float64(time.Second))
}

// sweep climbs the ladder, one fresh server per rung, until a rung misses
// the limit.
func (b *bench) sweep(s *serveSetup) ([]*phase, error) {
	var rungs []*phase
	for _, rate := range ladder {
		ph, _, err := b.runPhase(s, rate, phaseLength(rate), 0)
		if err != nil {
			return nil, err
		}
		rungs = append(rungs, ph)
		if !ph.meetsSLO() {
			break
		}
	}
	return rungs, nil
}

// maxRateAtSLO returns the highest rung rate meeting the limit, moved
// toward the first failing rung by linear interpolation of the rung score
// across the two, so the figure does not jump a whole rung on a small
// change.
func maxRateAtSLO(rungs []*phase) float64 {
	best := -1
	for i, r := range rungs {
		if !r.meetsSLO() {
			break
		}
		best = i
	}
	if best < 0 {
		return 0
	}
	ok := rungs[best]
	if best+1 >= len(rungs) || rungs[best+1].failed > 0 {
		return ok.rate
	}
	bad := rungs[best+1]
	lo, hi := ok.score(), bad.score()
	f := math.Min(1, (float64(sloLimit.Microseconds())-lo)/(hi-lo))
	return ok.rate + f*(bad.rate-ok.rate)
}

// tracedServe runs one untraced and one traced nominal phase, times the
// wire stages in process on the same bodies, and reports the layers.
func (b *bench) tracedServe(s *serveSetup) error {
	b.initLayers()
	dur := time.Duration(float64(b.window) * 0.25)
	b.tr.on = false
	plain, _, err := b.runPhase(s, nominalRate, dur, 0)
	if err != nil {
		return err
	}
	b.tr.on = true
	root := b.tr.id()
	t0 := time.Now()
	traced, sv, err := b.runPhase(s, nominalRate, dur, root)
	if err != nil {
		return err
	}
	b.tr.record("bench.phase", root, 0, 0, 0, t0, time.Now())

	clientP50 := quantile(micros(traced.svc), 0.50)
	hist := sv.reg.Snapshot().Histograms["synpad.place.latency_ns"]
	b.layer("serve.server_place_us_p50", hist.P50/1e3, "us")
	b.layer("serve.untracked_share", 1-ratio(hist.P50/1e3, clientP50), "ratio")
	b.layer("serve.rejected", float64(counter(sv.reg, "synpad.rejected")), "count")
	b.layer("serve.errors", float64(counter(sv.reg, "synpad.place.errors")), "count")
	b.layer("loadgen.late_us_p99", quantile(micros(append(plain.late, traced.late...)), 0.99), "us")
	b.layer("loadgen.sent", float64(plain.sent+traced.sent), "count")
	b.layer("loadgen.failed", float64(plain.failed+traced.failed), "count")
	b.layer("obs.trace_overhead", ratio(clientP50, quantile(micros(plain.svc), 0.50))-1, "ratio")
	inv, pair := sv.srv.Policy().SharedCache().Stats()
	b.reportCache(cacheTraffic{invert: inv, pair: pair})
	if err := b.wireStages(s); err != nil {
		return err
	}
	b.reportTraining()
	b.reportSelfTimes()
	return nil
}

// wireStages pushes the bodies through the public wire functions in
// process — decode, validate, place, encode — timing each stage, and
// checks every answer against the reference. core.place_us_* time a bare
// PlaceR call on the same query.
func (b *bench) wireStages(s *serveSetup) error {
	p, err := core.NewPolicy(s.model, core.PolicyOptions{})
	if err != nil {
		return err
	}
	a := p.NewArena()
	// A second, equally cold policy times the bare PlaceR call, so it
	// does not answer from the memos the PlaceOne call just filled.
	bare, err := core.NewPolicy(s.model, core.PolicyOptions{})
	if err != nil {
		return err
	}
	ba := bare.NewArena()
	n := len(s.bodies)
	var dec, val, plc, enc, pr []time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var q serve.PlaceRequest
		d := json.NewDecoder(bytes.NewReader(s.bodies[i]))
		d.DisallowUnknownFields()
		err := d.Decode(&q)
		t1 := time.Now()
		if err == nil {
			err = q.Validate()
		}
		t2 := time.Now()
		var resp *serve.PlaceResponse
		if err == nil {
			resp, err = serve.PlaceOne(p, a, &q)
		}
		t3 := time.Now()
		var buf bytes.Buffer
		if err == nil {
			err = json.NewEncoder(&buf).Encode(resp)
		}
		t4 := time.Now()
		if err == nil && !bytes.Equal(buf.Bytes(), s.expected[i]) {
			err = errors.New("in-process wire answer differs from the reference")
		}
		b.check("wire", err)
		dec, val, plc, enc = append(dec, t1.Sub(t0)), append(val, t2.Sub(t1)), append(plc, t3.Sub(t2)), append(enc, t4.Sub(t3))

		ba.Reset()
		st := stateOf(&q)
		t5 := time.Now()
		bare.PlaceR(ba, st)
		pr = append(pr, time.Since(t5))
	}
	b.layer("serve.decode_us", quantile(micros(dec), 0.5), "us")
	b.layer("serve.validate_us", quantile(micros(val), 0.5), "us")
	b.layer("serve.place_us", quantile(micros(plc), 0.5), "us")
	b.layer("serve.encode_us", quantile(micros(enc), 0.5), "us")
	b.reportPlaceLatency(pr)
	return nil
}

// stateOf converts a decoded query into the QuantumState PlaceOne decides
// on (the wire contract's field-for-field mapping).
func stateOf(q *serve.PlaceRequest) *machine.QuantumState {
	st := &machine.QuantumState{
		Quantum:       q.Quantum,
		NumCores:      q.NumCores,
		NumApps:       q.NumApps,
		AppIDs:        q.AppIDs,
		Priorities:    q.Priorities,
		SMTLevel:      q.SMTLevel,
		DispatchWidth: q.DispatchWidth,
	}
	if st.DispatchWidth == 0 {
		st.DispatchWidth = smtcore.DefaultConfig().DispatchWidth
	}
	if q.Prev != nil {
		st.Prev = machine.Placement(q.Prev)
	}
	if q.Samples != nil {
		st.Samples = make([]pmu.Counters, len(q.Samples))
		for i, row := range q.Samples {
			copy(st.Samples[i][:], row)
		}
	}
	return st
}
