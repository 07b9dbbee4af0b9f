// Package loadgen replays Zipf-distributed recovery-planning traffic
// against one or more nrserved nodes and summarises the result as a
// wire.LoadReport: latency percentiles, throughput, status classes, and
// the fleet's cache dispositions (hit / coalesced / peer-filled).
//
// The generator is deterministic end to end: scenario population, per
// worker key choice (Zipf over the population), target choice and op mix
// all derive from splitmix64 streams rooted in Spec.Seed, so two runs
// against identical servers issue the identical request sequence per
// worker. It supports a closed loop (fixed concurrency, a worker issues
// the next request when the previous answer lands) and an open loop
// (fixed arrival rate into a bounded dispatch queue; arrivals that find
// the queue full are dropped and counted, so a stalling fleet shows up as
// drops, not as a silently idling generator).
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
	"netrecovery/internal/splitmix"
	"netrecovery/internal/topology"
	"netrecovery/internal/wire"
)

// Defaults of the zero Spec fields.
const (
	DefaultConcurrency = 4
	DefaultScenarios   = 64
	DefaultZipfS       = 1.2
	DefaultZipfV       = 1.0
	DefaultPairs       = 2
	DefaultFlow        = 6.0
	DefaultTopology    = "grid:5x5"
	DefaultAlgorithm   = "ISP"

	defaultRequestTimeout = 10 * time.Second
)

// Mix weighs the request kinds: a worker draws an op with probability
// proportional to its weight. All-zero means plans only.
type Mix struct {
	// Plan is a POST /v1/plan round trip.
	Plan int
	// Session is a create → delta re-plan → delete session lifecycle
	// (the delta step is skipped for scenarios with no broken link).
	Session int
	// Ensemble is a small POST /v1/ensemble run.
	Ensemble int
}

// Spec parameterises Run.
type Spec struct {
	// Targets are the node base URLs; each request picks one uniformly.
	Targets []string
	// Duration bounds the run's wall time; MaxRequests bounds the number
	// of issued requests. At least one must be positive; whichever trips
	// first ends the run.
	Duration    time.Duration
	MaxRequests int
	// Concurrency is the worker count (0 = DefaultConcurrency).
	Concurrency int
	// Rate switches to the open loop: arrivals per second fed into a
	// bounded queue of QueueDepth (0 = 2·Concurrency) drained by the
	// workers. Rate 0 is the closed loop.
	Rate       float64
	QueueDepth int
	// Scenarios is the population size; keys are drawn Zipf(ZipfS, ZipfV)
	// over it, so a small hot set dominates like production fingerprint
	// traffic does. Zeros pick DefaultScenarios / DefaultZipfS /
	// DefaultZipfV.
	Scenarios    int
	ZipfS, ZipfV float64
	// Seed roots every random stream of the run.
	Seed uint64
	// Algorithm and Fast select the solver the plan requests ask for.
	Algorithm string
	Fast      bool
	// Mix weighs plan/session/ensemble ops.
	Mix Mix
	// Topology is "grid:RxC" or "bell-canada"; Pairs and Flow shape the
	// demand set (zeros pick the defaults).
	Topology string
	Pairs    int
	Flow     float64
	// RequestTimeout bounds one HTTP round trip (0 = 10s).
	RequestTimeout time.Duration
	// PrewarmAll issues every scenario once against every target before
	// measuring, so the measured window starts cache-warm fleet-wide.
	PrewarmAll bool
	// Timing requests the per-response traced timing breakdown
	// (options.timing) on plan requests and aggregates it into the
	// report's Timing block — attributing latency to queue wait, solver
	// execution and peer fills. Needs tracing enabled on the fleet;
	// untraced responses simply carry no block and are not sampled.
	Timing bool
	// Client is the HTTP client (nil = a default client).
	Client *http.Client
}

func (s Spec) withDefaults() Spec {
	if s.Concurrency <= 0 {
		s.Concurrency = DefaultConcurrency
	}
	if s.Scenarios <= 0 {
		s.Scenarios = DefaultScenarios
	}
	if s.ZipfS <= 1 {
		s.ZipfS = DefaultZipfS
	}
	if s.ZipfV < 1 {
		s.ZipfV = DefaultZipfV
	}
	if s.Algorithm == "" {
		s.Algorithm = DefaultAlgorithm
	}
	if s.Topology == "" {
		s.Topology = DefaultTopology
	}
	if s.Pairs <= 0 {
		s.Pairs = DefaultPairs
	}
	if s.Flow <= 0 {
		s.Flow = DefaultFlow
	}
	if s.RequestTimeout <= 0 {
		s.RequestTimeout = defaultRequestTimeout
	}
	if s.QueueDepth <= 0 {
		s.QueueDepth = 2 * s.Concurrency
	}
	if s.Mix.Plan <= 0 && s.Mix.Session <= 0 && s.Mix.Ensemble <= 0 {
		s.Mix = Mix{Plan: 1}
	}
	if s.Client == nil {
		s.Client = &http.Client{}
	}
	return s
}

// parseTopology builds the base graph named by spec ("grid:RxC" or
// "bell-canada").
func parseTopology(name string) (*graph.Graph, error) {
	if name == "bell-canada" {
		return topology.BellCanada(), nil
	}
	if rest, ok := strings.CutPrefix(name, "grid:"); ok {
		rs, cs, ok := strings.Cut(rest, "x")
		if ok {
			r, err1 := strconv.Atoi(rs)
			c, err2 := strconv.Atoi(cs)
			if err1 == nil && err2 == nil {
				return topology.Grid(r, c, topology.DefaultConfig(10))
			}
		}
		return nil, fmt.Errorf("loadgen: bad grid topology %q (want grid:RxC)", name)
	}
	return nil, fmt.Errorf("loadgen: unknown topology %q", name)
}

// workItem is one member of the scenario population with its request
// bodies rendered once up front (the generator must not spend measured
// time marshalling).
type workItem struct {
	// planBody doubles as the session-create body (the request shapes
	// coincide).
	planBody []byte
	// deltaBody repairs the scenario's first broken link; nil when the
	// disruption broke no link.
	deltaBody []byte
	// ensembleBody is a small bernoulli ensemble over the scenario.
	ensembleBody []byte
}

// buildPopulation renders the deterministic scenario population: one base
// graph and demand set, Spec.Scenarios independent random disruptions.
func buildPopulation(spec Spec) ([]workItem, error) {
	g, err := parseTopology(spec.Topology)
	if err != nil {
		return nil, err
	}
	dg, err := demand.GenerateFarApartPairs(g, spec.Pairs, spec.Flow,
		rand.New(rand.NewSource(int64(splitmix.Next(spec.Seed^0xd3)))))
	if err != nil {
		return nil, fmt.Errorf("loadgen: demand generation: %w", err)
	}
	items := make([]workItem, spec.Scenarios)
	for i := range items {
		rng := rand.New(rand.NewSource(int64(splitmix.Next(spec.Seed ^ uint64(i+1)*0x9e3779b97f4a7c15))))
		d := disruption.Random(g, 0.15, 0.25, rng)
		s := &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
		ws := wire.FromScenario(fmt.Sprintf("load-%d", i), s)
		items[i].planBody, err = json.Marshal(wire.PlanRequest{
			Scenario:  ws,
			Algorithm: spec.Algorithm,
			Options:   wire.SolveOptions{Fast: spec.Fast, Workers: 1, Timing: spec.Timing},
		})
		if err != nil {
			return nil, err
		}
		if edges := s.SortedBrokenEdges(); len(edges) > 0 {
			items[i].deltaBody, err = json.Marshal(wire.DeltaRequest{
				Deltas: []wire.Delta{{Kind: wire.DeltaRepairLink, Link: int(edges[0])}},
			})
			if err != nil {
				return nil, err
			}
		}
		items[i].ensembleBody, err = json.Marshal(wire.EnsembleRequest{
			Scenario:  ws,
			Sampler:   wire.EnsembleSampler{Model: "bernoulli", NodeProb: 0.1, EdgeProb: 0.15},
			Samples:   8,
			Seed:      int64(i) + 1,
			Algorithm: spec.Algorithm,
			Options:   wire.SolveOptions{Fast: spec.Fast, Workers: 1},
		})
		if err != nil {
			return nil, err
		}
	}
	return items, nil
}

// opKind tags a sample with the request kind that produced it.
type opKind uint8

const (
	opPlan opKind = iota
	opSession
	opEnsemble
)

// sample is one completed logical op.
type sample struct {
	op      opKind
	status  int // 0 = transport error
	cache   string
	latency time.Duration
	// timed is true when the plan response carried a timing block; the
	// phase durations below are summed per phase across the trace's spans.
	timed            bool
	queueUS, solveUS int64
	peerUS           int64
}

// runner carries the shared run state.
type runner struct {
	spec   Spec
	items  []workItem
	issued atomic.Int64 // logical ops started, capped by MaxRequests
}

// Run executes the load spec and aggregates the result. The context
// cancels the run early; whatever was measured so far is reported.
func Run(ctx context.Context, spec Spec) (*wire.LoadReport, error) {
	spec = spec.withDefaults()
	if len(spec.Targets) == 0 {
		return nil, errors.New("loadgen: no targets")
	}
	if spec.Duration <= 0 && spec.MaxRequests <= 0 {
		return nil, errors.New("loadgen: need Duration or MaxRequests")
	}
	items, err := buildPopulation(spec)
	if err != nil {
		return nil, err
	}
	r := &runner{spec: spec, items: items}

	if spec.PrewarmAll {
		if err := r.prewarm(ctx); err != nil {
			return nil, err
		}
	}

	var (
		mu      sync.Mutex
		samples []sample
		dropped atomic.Int64
	)
	collect := func(batch []sample) {
		mu.Lock()
		samples = append(samples, batch...)
		mu.Unlock()
	}

	deadline := time.Time{}
	if spec.Duration > 0 {
		deadline = time.Now().Add(spec.Duration)
	}
	start := time.Now()
	var wg sync.WaitGroup
	if spec.Rate > 0 {
		// Open loop: a dispatcher stamps arrivals into a bounded queue.
		queue := make(chan time.Time, spec.QueueDepth)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(queue)
			interval := time.Duration(float64(time.Second) / spec.Rate)
			if interval <= 0 {
				interval = time.Microsecond
			}
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case now := <-ticker.C:
					if !deadline.IsZero() && now.After(deadline) {
						return
					}
					if spec.MaxRequests > 0 && r.issued.Load() >= int64(spec.MaxRequests) {
						return
					}
					select {
					case queue <- now:
					default:
						dropped.Add(1)
					}
				}
			}
		}()
		for w := 0; w < spec.Concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				st := r.newWorkerState(w)
				var batch []sample
				for arrival := range queue {
					if spec.MaxRequests > 0 && r.issued.Add(1) > int64(spec.MaxRequests) {
						break
					}
					s := r.doOp(ctx, st)
					// Open-loop latency runs from arrival, so queue wait
					// (up to the bound) counts against the fleet.
					s.latency = time.Since(arrival)
					batch = append(batch, s)
				}
				collect(batch)
			}(w)
		}
	} else {
		// Closed loop: each worker issues back-to-back requests.
		for w := 0; w < spec.Concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				st := r.newWorkerState(w)
				var batch []sample
				for ctx.Err() == nil {
					if !deadline.IsZero() && time.Now().After(deadline) {
						break
					}
					if spec.MaxRequests > 0 && r.issued.Add(1) > int64(spec.MaxRequests) {
						break
					}
					batch = append(batch, r.doOp(ctx, st))
				}
				collect(batch)
			}(w)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := aggregate(spec, samples, elapsed)
	rep.Dropped = int(dropped.Load())
	return rep, nil
}

// workerState is one worker's deterministic random streams.
type workerState struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func (r *runner) newWorkerState(w int) *workerState {
	rng := rand.New(rand.NewSource(int64(splitmix.Next(r.spec.Seed ^ uint64(w+1)*0xbf58476d1ce4e5b9))))
	return &workerState{
		rng:  rng,
		zipf: rand.NewZipf(rng, r.spec.ZipfS, r.spec.ZipfV, uint64(len(r.items)-1)),
	}
}

// doOp draws and executes one logical op, returning its sample.
func (r *runner) doOp(ctx context.Context, st *workerState) sample {
	item := &r.items[st.zipf.Uint64()]
	target := r.spec.Targets[st.rng.Intn(len(r.spec.Targets))]
	mix := r.spec.Mix
	total := mix.Plan + mix.Session + mix.Ensemble
	draw := st.rng.Intn(total)
	start := time.Now()
	var s sample
	switch {
	case draw < mix.Plan:
		s = r.doPlan(ctx, target, item)
	case draw < mix.Plan+mix.Session:
		s = r.doSession(ctx, target, item)
	default:
		s = r.doEnsemble(ctx, target, item)
	}
	s.latency = time.Since(start)
	return s
}

// post issues one POST round trip and decodes the response into out (when
// non-nil and the status is 2xx). A transport failure returns status 0.
func (r *runner) post(ctx context.Context, url string, body []byte, out any) int {
	return r.roundTrip(ctx, http.MethodPost, url, body, out)
}

func (r *runner) roundTrip(ctx context.Context, method, url string, body []byte, out any) int {
	ctx, cancel := context.WithTimeout(ctx, r.spec.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.spec.Client.Do(req)
	if err != nil {
		return 0
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(out); err != nil {
			return 0
		}
	}
	return resp.StatusCode
}

// doPlan posts one plan request and records the server's cache verdict
// (and, when the run requested timing, the traced phase breakdown).
func (r *runner) doPlan(ctx context.Context, target string, item *workItem) sample {
	var resp struct {
		Cache  wire.CacheInfo `json:"cache"`
		Timing *wire.Timing   `json:"timing"`
	}
	code := r.post(ctx, target+"/v1/plan", item.planBody, &resp)
	s := sample{op: opPlan, status: code, cache: resp.Cache.Status}
	if t := resp.Timing; t != nil {
		s.timed = true
		for _, span := range t.Spans {
			switch span.Name {
			case "admission.wait":
				s.queueUS += span.DurationUS
			case "solve":
				s.solveUS += span.DurationUS
			case "peer.fill":
				s.peerUS += span.DurationUS
			}
		}
	}
	return s
}

// doSession runs a create → (optional) delta re-plan → delete lifecycle.
// The sample's status is the first non-2xx answer, so a failure anywhere in
// the lifecycle is visible.
func (r *runner) doSession(ctx context.Context, target string, item *workItem) sample {
	var created wire.SessionResponse
	code := r.post(ctx, target+"/v1/session", item.planBody, &created)
	s := sample{op: opSession, status: code}
	if code/100 != 2 || created.Session.ID == "" {
		return s
	}
	base := target + "/v1/session/" + created.Session.ID
	if item.deltaBody != nil {
		if code := r.post(ctx, base+"/delta", item.deltaBody, nil); code/100 != 2 {
			s.status = code
		}
	}
	if code := r.roundTrip(ctx, http.MethodDelete, base, nil, nil); code/100 != 2 && s.status/100 == 2 {
		s.status = code
	}
	return s
}

// doEnsemble posts one small ensemble run.
func (r *runner) doEnsemble(ctx context.Context, target string, item *workItem) sample {
	code := r.post(ctx, target+"/v1/ensemble", item.ensembleBody, nil)
	return sample{op: opEnsemble, status: code}
}

// prewarm issues every scenario once against every target.
func (r *runner) prewarm(ctx context.Context) error {
	type job struct {
		target string
		item   *workItem
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < r.spec.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r.doPlan(ctx, j.target, j.item)
			}
		}()
	}
	for _, target := range r.spec.Targets {
		for i := range r.items {
			jobs <- job{target, &r.items[i]}
		}
	}
	close(jobs)
	wg.Wait()
	return ctx.Err()
}

// percentileMS returns the q-quantile (0 < q <= 1) of sorted latencies in
// milliseconds.
func percentileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// aggregate folds the samples into the wire report.
func aggregate(spec Spec, samples []sample, elapsed time.Duration) *wire.LoadReport {
	rep := &wire.LoadReport{
		Targets:    spec.Targets,
		Mode:       "closed",
		DurationMS: float64(elapsed) / float64(time.Millisecond),
		Requests:   len(samples),
	}
	if spec.Rate > 0 {
		rep.Mode = "open"
	}
	var (
		lats  []time.Duration
		sum   time.Duration
		plans int
	)
	for _, s := range samples {
		switch {
		case s.status == 0:
			rep.Errors++
		case s.status/100 == 2:
			rep.OK2xx++
		case s.status/100 == 4:
			rep.Err4xx++
			rep.Errors++
		case s.status/100 == 5:
			rep.Err5xx++
			rep.Errors++
		default:
			rep.Errors++
		}
		if s.status/100 == 2 {
			lats = append(lats, s.latency)
			sum += s.latency
		}
		switch s.op {
		case opPlan:
			rep.Ops.Plans++
		case opSession:
			rep.Ops.Sessions++
		case opEnsemble:
			rep.Ops.Ensembles++
		}
		if s.op == opPlan && s.status/100 == 2 {
			plans++
			switch s.cache {
			case "hit":
				rep.Cache.Hits++
			case "miss":
				rep.Cache.Misses++
			case "coalesced":
				rep.Cache.Coalesced++
			case "peer":
				rep.Cache.PeerFilled++
			case "bypass":
				rep.Cache.Bypass++
			case "stale":
				rep.Cache.Stale++
			}
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rep.Latency = wire.LoadLatency{
		P50MS:  percentileMS(lats, 0.50),
		P90MS:  percentileMS(lats, 0.90),
		P99MS:  percentileMS(lats, 0.99),
		P999MS: percentileMS(lats, 0.999),
	}
	if n := len(lats); n > 0 {
		rep.Latency.MaxMS = float64(lats[n-1]) / float64(time.Millisecond)
		rep.Latency.MeanMS = float64(sum) / float64(n) / float64(time.Millisecond)
	}
	if sec := elapsed.Seconds(); sec > 0 {
		rep.ThroughputRPS = float64(len(samples)) / sec
	}
	if plans > 0 {
		rep.Cache.HitRatio = float64(rep.Cache.Hits+rep.Cache.Coalesced+rep.Cache.PeerFilled) / float64(plans)
		rep.Cache.PeerFillRatio = float64(rep.Cache.PeerFilled) / float64(plans)
	}
	if spec.Timing {
		rep.Timing = aggregateTiming(samples)
	}
	return rep
}

// aggregateTiming folds the per-response phase breakdowns into the report's
// timing block. Every timed plan sample contributes to every phase (0 when
// the phase did not run), so the phase percentiles are over the same
// population as the whole-request latency percentiles.
func aggregateTiming(samples []sample) *wire.LoadTiming {
	var queue, solve, peer []time.Duration
	for _, s := range samples {
		if !s.timed || s.op != opPlan || s.status/100 != 2 {
			continue
		}
		queue = append(queue, time.Duration(s.queueUS)*time.Microsecond)
		solve = append(solve, time.Duration(s.solveUS)*time.Microsecond)
		peer = append(peer, time.Duration(s.peerUS)*time.Microsecond)
	}
	if len(queue) == 0 {
		return nil
	}
	for _, phase := range [][]time.Duration{queue, solve, peer} {
		sort.Slice(phase, func(i, j int) bool { return phase[i] < phase[j] })
	}
	return &wire.LoadTiming{
		Samples:       len(queue),
		QueueP50MS:    percentileMS(queue, 0.50),
		QueueP99MS:    percentileMS(queue, 0.99),
		SolveP50MS:    percentileMS(solve, 0.50),
		SolveP99MS:    percentileMS(solve, 0.99),
		PeerFillP50MS: percentileMS(peer, 0.50),
		PeerFillP99MS: percentileMS(peer, 0.99),
	}
}
