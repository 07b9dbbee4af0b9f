package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"netrecovery/internal/heuristics"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
	"netrecovery/internal/wire"
)

// span is one timed layer call of the traced replay. Times are offsets
// from the tracer's epoch; parent is an index into the same tracer's spans
// (-1 for a root).
type span struct {
	name       string
	op         int
	parent     int
	start, end time.Duration
}

// tracer keeps one workload's spans in memory.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string, capacity int) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = time.Since(t.epoch) }

// layerTimes returns, per span name, the self time of every span (its
// duration minus the part its children cover) and the total duration of
// the "op" roots.
func (t *tracer) layerTimes() (self map[string][]time.Duration, opTotal time.Duration) {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self = make(map[string][]time.Duration)
	for i, s := range t.spans {
		self[s.name] = append(self[s.name], s.end-s.start-child[i])
		if s.name == "op" {
			opTotal += s.end - s.start
		}
	}
	return self, opTotal
}

// durations returns the full durations of the spans named name.
func (t *tracer) durations(name string) []time.Duration {
	var d []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d = append(d, s.end-s.start)
		}
	}
	return d
}

// counts accumulates the solver-depth statistics of the replayed solves.
type counts struct {
	ispSolves, milpSolves                                         int
	iterations, lpCalls, lpWarm, lpRebuilds, constructive         int64
	nodes, lpIterations, refactorisations, warmSolves, coldSolves int64
	splitHits, splitMisses, routHits, routMisses                  int
}

func (c *counts) onStats(_ context.Context, st heuristics.SolveStats) {
	if s := st.Core; s != nil {
		c.ispSolves++
		c.iterations += int64(s.Iterations)
		c.lpCalls += int64(s.Routability.Calls)
		c.lpWarm += int64(s.Routability.WarmStarts)
		c.lpRebuilds += int64(s.Routability.Rebuilds)
		c.constructive += int64(s.Routability.Constructive)
	}
	if m := st.MILP; m != nil {
		c.milpSolves++
		c.nodes += int64(m.Nodes)
		c.lpIterations += m.LPIterations
		c.refactorisations += m.Refactorisations
		c.warmSolves += m.WarmSolves
		c.coldSolves += m.ColdSolves
	}
}

// replay runs one workload's operations in-process through each layer's
// public entry point, in the order the server calls them.
type replay struct {
	w      workload
	tr     *tracer
	cache  *plancache.Cache
	counts counts
	// recording is false during the untraced plan_hot prewarm.
	recording           bool
	enc                 bytes.Buffer
	hits, lookups       int
	reqBytes, respBytes int
	answers             []tracedAnswer
}

// tracedAnswer is a plan the replay answered, checked after the op loop.
type tracedAnswer struct {
	s    *scenario.Scenario
	plan *scenario.Plan
	wp   wire.Plan
}

func (rp *replay) stats() heuristics.StatsFunc {
	return func(ctx context.Context, st heuristics.SolveStats) {
		if rp.recording {
			rp.counts.onStats(ctx, st)
		}
	}
}

func (rp *replay) begin(name string, op, parent int) int {
	if !rp.recording {
		return -1
	}
	return rp.tr.begin(name, op, parent)
}

func (rp *replay) end(i int) {
	if i >= 0 {
		rp.tr.end(i)
	}
}

// decode mirrors the server's request decoding.
func decode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// encode mirrors the server's response encoding into rp.enc.
func (rp *replay) encode(v any) error {
	rp.enc.Reset()
	enc := json.NewEncoder(&rp.enc)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// plan serves one POST /v1/plan body the way the server does.
func (rp *replay) plan(op int, body []byte) error {
	root := rp.begin("op", op, -1)
	defer rp.end(root)
	sp := rp.begin("wire.decode", op, root)
	var req wire.PlanRequest
	err := decode(body, &req)
	rp.end(sp)
	if err != nil {
		return err
	}
	sp = rp.begin("wire.build", op, root)
	s, err := req.Scenario.Build()
	rp.end(sp)
	if err != nil {
		return err
	}
	params := heuristics.Params{
		Fast:         req.Options.Fast,
		OPTTimeLimit: time.Duration(req.Options.OptTimeLimitMS) * time.Millisecond,
		OPTMaxNodes:  req.Options.OptMaxNodes,
		OPTWorkers:   req.Options.Workers,
		OnStats:      rp.stats(),
	}
	solver, err := heuristics.New(req.Algorithm, params)
	if err != nil {
		return err
	}
	sp = rp.begin("scenario.fingerprint", op, root)
	fp := s.FingerprintHex()
	key := plancache.Key{Fingerprint: s.Fingerprint(), Algorithm: req.Algorithm}
	rp.end(sp)
	sp = rp.begin("plancache.do", op, root)
	key.Options = plancache.ParamsDigest(params)
	plan, outcome, age, err := rp.cache.Do(context.Background(), key, func(ctx context.Context) (*scenario.Plan, error) {
		ss := rp.begin(solveSpan(req.Algorithm), op, sp)
		defer rp.end(ss)
		return solver.Solve(ctx, s)
	})
	rp.end(sp)
	if err != nil {
		return err
	}
	sp = rp.begin("wire.encode", op, root)
	wp := wire.FromPlan(s, plan)
	err = rp.encode(wire.PlanResponse{
		Plan:  wp,
		Cache: wire.CacheInfo{Status: outcome.String(), Fingerprint: fp, AgeMS: age.Milliseconds()},
	})
	rp.end(sp)
	if rp.recording {
		rp.lookups++
		if outcome == plancache.Hit {
			rp.hits++
		}
		rp.reqBytes += len(body)
		rp.respBytes += rp.enc.Len()
		rp.answers = append(rp.answers, tracedAnswer{s, plan, wp})
	}
	return err
}

// session is one open replayed session.
type session struct {
	isp *heuristics.ISPSession
	cur *scenario.Scenario
	n   int
}

// createSession opens a session and solves its initial plan, which fills
// the memos the deltas reuse; it is not a timed operation.
func createSession(s *scenario.Scenario) (*session, error) {
	ss := &session{isp: heuristics.NewISPSession(heuristics.Params{}), cur: s}
	_, err := ss.isp.Solve(context.Background(), s)
	return ss, err
}

// delta mirrors POST /v1/session/{id}/delta.
func (rp *replay) delta(op int, ss *session, body []byte) error {
	root := rp.begin("op", op, -1)
	defer rp.end(root)
	sp := rp.begin("wire.decode", op, root)
	var req wire.DeltaRequest
	err := decode(body, &req)
	rp.end(sp)
	if err != nil {
		return err
	}
	sp = rp.begin("wire.build", op, root)
	deltas := make([]scenario.Delta, len(req.Deltas))
	for i, wd := range req.Deltas {
		if deltas[i], err = wd.Build(); err != nil {
			break
		}
	}
	rp.end(sp)
	if err != nil {
		return err
	}
	sp = rp.begin("scenario.apply", op, root)
	next, err := ss.cur.Apply(deltas...)
	rp.end(sp)
	if err != nil {
		return err
	}
	ss.cur = next
	ss.n += len(deltas)
	solveName := "core.session_solve.repair"
	if deltas[0].Kind == scenario.DeltaSetDemand {
		solveName = "core.session_solve.demand"
	}
	sp = rp.begin(solveName, op, root)
	t0 := time.Now()
	plan, err := ss.isp.Solve(context.Background(), ss.cur)
	rp.end(sp)
	if err != nil {
		return err
	}
	sp = rp.begin("wire.encode", op, root)
	wp := wire.FromPlan(ss.cur, plan)
	err = rp.encode(wire.DeltaResponse{
		Session:  wire.SessionInfo{Algorithm: "ISP", Fingerprint: ss.cur.FingerprintHex(), Warm: true, Plans: ss.n + 1, Deltas: ss.n},
		Plan:     wp,
		ReplanMS: ms(time.Since(t0)),
	})
	rp.end(sp)
	rp.answers = append(rp.answers, tracedAnswer{ss.cur, plan, wp})
	return err
}

// tracedRun is the outcome of one workload's replay.
type tracedRun struct {
	rp      *replay
	ops     int
	allocs  uint64 // heap allocations during the timed operations
	digests []string
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// replayWorkload replays w's first w.traceOps operations (lifecycles for
// sessions), alternating between the clients' seeded sequences.
func replayWorkload(w workload, rec *recipe, seed int64) (*tracedRun, error) {
	suffix, err := requestSuffix(w.algorithm)
	if err != nil {
		return nil, err
	}
	rp := &replay{w: w, cache: plancache.New(plancache.Config{}), tr: newTracer(w.name, 16*w.traceOps)}
	run := &tracedRun{rp: rp}
	switch w.kind {
	case kindHot, kindCold:
		var bodies [][]byte
		if w.kind == kindHot {
			pop := hotPopulation(rec, w, suffix)
			for _, it := range pop {
				if err := rp.plan(-1, it.body); err != nil {
					return nil, fmt.Errorf("prewarm: %w", err)
				}
			}
			var zipfs []*rand.Zipf
			for c := 0; c < clients; c++ {
				zipfs = append(zipfs, newZipf(clientRand(w, seed, c), len(pop)))
			}
			for k := 0; k < w.traceOps; k++ {
				bodies = append(bodies, pop[zipfs[k%clients].Uint64()].body)
			}
		} else {
			seqs := clientSequences(w, seed)
			for k := 0; k < w.traceOps; k++ {
				s := rec.scenario(scenarioSeed(w, purposeTimed, seqs[k%clients].next()))
				bodies = append(bodies, rec.body(s, suffix))
			}
		}
		rp.recording = true
		before := mallocs()
		for op, body := range bodies {
			if err := rp.plan(op, body); err != nil {
				return nil, fmt.Errorf("op %d: %w", op, err)
			}
		}
		run.allocs = mallocs() - before
		run.ops = len(bodies)
	case kindSession:
		rp.recording = true
		seqs := clientSequences(w, seed)
		op := 0
		for k := 0; k < w.traceOps; k++ {
			c := k % clients
			var sc *scenario.Scenario
			var steps []scenario.Delta
			for len(steps) == 0 {
				sc = rec.scenario(scenarioSeed(w, purposeTimed, seqs[c].next()))
				steps = rec.sessionScript(sc)
			}
			bodies := make([][]byte, len(steps))
			for i, d := range steps {
				if bodies[i], err = deltaBody(d); err != nil {
					return nil, err
				}
			}
			ss, err := createSession(sc)
			if err != nil {
				return nil, fmt.Errorf("session create: %w", err)
			}
			before := mallocs()
			for _, body := range bodies {
				if err := rp.delta(op, ss, body); err != nil {
					return nil, fmt.Errorf("op %d: %w", op, err)
				}
				op++
			}
			run.allocs += mallocs() - before
			st := ss.isp.Stats()
			rp.counts.splitHits += st.SplitHits
			rp.counts.splitMisses += st.SplitMisses
			rp.counts.routHits += st.RoutabilityHits
			rp.counts.routMisses += st.RoutabilityMisses
		}
		run.ops = op
	}
	return run, nil
}

// clientSequences returns the timed sequences of every client.
func clientSequences(w workload, seed int64) []*sequence {
	seqs := make([]*sequence, clients)
	for c := range seqs {
		seqs[c] = &sequence{client: c, rng: clientRand(w, seed, c)}
	}
	return seqs
}

// verify checks every replayed plan: scenario.VerifyPlan (timed as the
// scenario.verify layer) and the answer check the HTTP run applies.
func (run *tracedRun) verify(res *result) {
	rp := run.rp
	checked := make(map[*scenario.Plan]error)
	for op, a := range rp.answers {
		sp := rp.tr.begin("scenario.verify", op, -1)
		err := scenario.VerifyPlan(a.s, a.plan)
		rp.tr.end(sp)
		if err == nil {
			var seen bool
			if err, seen = checked[a.plan]; !seen {
				_, err = checkAnswer(a.s, rp.w.algorithm, &a.wp)
				checked[a.plan] = err
			}
		}
		res.attempted++
		if err != nil {
			res.fail("%s traced op %d: %v", rp.w.name, op, err)
		}
		sum := sha256.Sum256(fmt.Appendf(nil, "%v|%v|%.12g|%.12g", a.wp.RepairedNodes, a.wp.RepairedLinks, a.wp.Cost, a.wp.SatisfiedRatio))
		run.digests = append(run.digests, hex.EncodeToString(sum[:8]))
	}
}

// traced is the --trace 1 invocation: it replays every workload and
// reports the per-layer metrics, then writes the spans to spansPath (when
// set).
func traced(seed int64, spansPath string) (*result, error) {
	rec, err := newRecipe()
	if err != nil {
		return nil, err
	}
	res := &result{statuses: make(map[int]int)}
	runs := make(map[string]*tracedRun)
	var order []*tracedRun
	for _, w := range workloads {
		run, err := replayWorkload(w, rec, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		run.verify(res)
		runs[w.name] = run
		order = append(order, run)
		if w.kind != kindSession {
			ratio := float64(run.rp.hits) / float64(run.rp.lookups)
			if want := map[kind]float64{kindHot: 1, kindCold: 0}[w.kind]; ratio != want {
				res.selfChecks = append(res.selfChecks, fmt.Errorf("%w: %s traced plan cache hit ratio %.4f, want %g", errSelfCheck, w.name, ratio, want))
			}
		}
	}
	transport, err := transportUS(rec, seed, runs["plan_hot"])
	if err != nil {
		return nil, err
	}

	hot, cold, sess, opt := runs["plan_hot"], runs["plan_cold"], runs["replan_session"], runs["plan_opt"]
	hotSelf, _ := hot.rp.tr.layerTimes()
	sessSelf, _ := sess.rp.tr.layerTimes()
	us := func(d []time.Duration) float64 { return p50(d) / 1e3 }
	msec := func(d []time.Duration) float64 { return p50(d) / 1e6 }
	per := func(n int64, solves int) float64 { return float64(n) / float64(max(solves, 1)) }

	res.add("wire.decode_us", "us", us(hotSelf["wire.decode"]))
	res.add("wire.build_us", "us", us(hotSelf["wire.build"]))
	res.add("wire.encode_us", "us", us(hotSelf["wire.encode"]))
	res.add("wire.request_bytes", "bytes", float64(hot.rp.reqBytes)/float64(hot.ops))
	res.add("wire.response_bytes", "bytes", float64(hot.rp.respBytes)/float64(hot.ops))
	res.add("scenario.fingerprint_us", "us", us(hotSelf["scenario.fingerprint"]))
	res.add("plancache.do_us", "us", us(hotSelf["plancache.do"]))
	res.add("plancache.hit_ratio", "ratio", float64(hot.rp.hits)/float64(hot.rp.lookups))
	res.add("server.transport_us", "us", transport)
	var verify []time.Duration
	for _, run := range order {
		verify = append(verify, run.rp.tr.durations("scenario.verify")...)
	}
	res.add("scenario.verify_us", "us", us(verify))

	cc := cold.rp.counts
	res.add("core.solve_ms", "ms", msec(cold.rp.tr.durations("core.solve")))
	res.add("core.isp_iterations", "1/solve", per(cc.iterations, cc.ispSolves))
	res.add("flow.lp_calls", "1/solve", per(cc.lpCalls, cc.ispSolves))
	res.add("flow.lp_warm_starts", "1/solve", per(cc.lpWarm, cc.ispSolves))
	res.add("flow.lp_rebuilds", "1/solve", per(cc.lpRebuilds, cc.ispSolves))
	res.add("flow.constructive_fallbacks", "1/solve", per(cc.constructive, cc.ispSolves))

	sc := sess.rp.counts
	res.add("scenario.apply_us", "us", us(sessSelf["scenario.apply"]))
	res.add("core.session_solve_ms.repair", "ms", msec(sess.rp.tr.durations("core.session_solve.repair")))
	res.add("core.session_solve_ms.demand", "ms", msec(sess.rp.tr.durations("core.session_solve.demand")))
	res.add("core.session_split_hit_ratio", "ratio", float64(sc.splitHits)/float64(max(sc.splitHits+sc.splitMisses, 1)))
	res.add("core.session_routability_hit_ratio", "ratio", float64(sc.routHits)/float64(max(sc.routHits+sc.routMisses, 1)))

	oc := opt.rp.counts
	res.add("milp.solve_ms", "ms", msec(opt.rp.tr.durations("milp.solve")))
	res.add("milp.nodes", "1/solve", per(oc.nodes, oc.milpSolves))
	res.add("milp.lp_iterations", "1/solve", per(oc.lpIterations, oc.milpSolves))
	res.add("milp.refactorisations", "1/solve", per(oc.refactorisations, oc.milpSolves))
	res.add("milp.warm_solves", "1/solve", per(oc.warmSolves, oc.milpSolves))
	res.add("milp.cold_solves", "1/solve", per(oc.coldSolves, oc.milpSolves))

	for _, run := range order {
		res.add("allocs_per_op."+run.rp.w.name, "1/op", float64(run.allocs)/float64(run.ops))
	}
	for _, run := range order {
		self, total := run.rp.tr.layerTimes()
		for _, name := range shareLayers(run.rp.w) {
			label := name
			if name == "op" {
				label = "other"
			}
			res.add("share_pct."+run.rp.w.name+"."+label, "%", 100*float64(sum(self[name]))/float64(total))
		}
	}

	h := sha256.New()
	for _, run := range order {
		fmt.Fprintln(h, run.rp.w.name, strings.Join(run.digests, ","))
	}
	res.digest = hex.EncodeToString(h.Sum(nil)[:8])
	if spansPath != "" {
		if err := writeSpans(spansPath, order); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// shareLayers are the spans whose self time the traced run reports as a
// share of op time; "op" is the root's own time, reported as "other".
func shareLayers(w workload) []string {
	if w.kind == kindSession {
		return []string{"wire.decode", "wire.build", "scenario.apply", "core.session_solve.repair", "core.session_solve.demand", "wire.encode", "op"}
	}
	layers := []string{"wire.decode", "wire.build", "scenario.fingerprint", "plancache.do"}
	if w.kind == kindCold {
		layers = append(layers, solveSpan(w.algorithm))
	}
	return append(layers, "wire.encode", "op")
}

func solveSpan(algorithm string) string {
	if algorithm == "OPT" {
		return "milp.solve"
	}
	return "core.solve"
}

// transportUS is the plan_hot p50 over HTTP with tracing off minus the
// traced in-process op p50: what the loopback round trip and the HTTP
// stack add to the layers the replay times.
func transportUS(rec *recipe, seed int64, hot *tracedRun) (float64, error) {
	w := hot.rp.w
	st, err := setUp(w, rec, seed)
	if err != nil {
		return 0, err
	}
	defer st.close()
	logs, _, err := st.drive(transportWindow)
	if err != nil {
		return 0, err
	}
	var lat []time.Duration
	for _, l := range logs {
		lat = append(lat, l.samples...)
	}
	return (p50(lat) - p50(hot.rp.tr.durations("op"))) / 1e3, nil
}

// transportWindow is how long the traced invocation drives plan_hot over
// HTTP for server.transport_us.
const transportWindow = 1500 * time.Millisecond

// p50 is the median in nanoseconds.
func p50(d []time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(quantile(s, 0.5))
}

func sum(d []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, runs []*tracedRun) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, run := range runs {
		tr := run.rp.tr
		for _, s := range tr.spans {
			if err := enc.Encode(struct {
				Workload string `json:"workload"`
				Op       int    `json:"op"`
				Name     string `json:"name"`
				Parent   int    `json:"parent"`
				StartNS  int64  `json:"start_ns"`
				EndNS    int64  `json:"end_ns"`
			}{tr.workload, s.op, s.name, s.parent, int64(s.start), int64(s.end)}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
