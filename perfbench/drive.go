package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"netrecovery/internal/cluster"
	"netrecovery/internal/loadgen"
	"netrecovery/internal/scenario"
	"netrecovery/internal/server"
	"netrecovery/internal/wire"
)

const (
	// clients is the closed loop's width: one client per core of the
	// 2-vCPU reference box, each waiting for its answer before the next
	// request, on its own keep-alive connection.
	clients = 2
	// setupRounds is how often a run sets up; setup_s is their median.
	setupRounds = 5
	// minTail is the number of samples that must lie beyond p99.
	minTail = 10
)

// errSelfCheck marks a run whose numbers would be unsteady or false; the
// run fails instead of printing them.
var errSelfCheck = errors.New("self-check failed")

// errShortWindow is the self-check of a window too short for its
// statistics: too few samples beyond p99.
var errShortWindow = fmt.Errorf("%w: window too short", errSelfCheck)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is what one invocation reports.
type result struct {
	metrics   []metric
	attempted int
	failed    int
	// statuses counts the timed operations by HTTP status, non-2xx only;
	// status 0 is a transport error.
	statuses map[int]int
	// failures holds the first few answer-check failures.
	failures []string
	// selfChecks are the self-check failures; a result with any is not
	// printed.
	selfChecks []error
	// digest summarises every traced plan (traced runs only).
	digest string
	// setups are the set-up times of an untraced run, in seconds, in the
	// order they ran; setup_s is their median.
	setups []float64
}

func (r *result) add(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name, unit, value})
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// httpClient is one closed-loop client on its own keep-alive connection.
type httpClient struct {
	tr  *http.Transport
	c   *http.Client
	buf bytes.Buffer
}

func newHTTPClient() *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpClient{tr: tr, c: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// do issues one request and returns the status and the body, which stays
// valid until the next call.
func (h *httpClient) do(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	h.buf.Reset()
	_, err = h.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, h.buf.Bytes(), nil
}

// scenRef names the scenario a timed request carried: the seed its
// failures were drawn from and, for sessions, how many script steps had
// been applied.
type scenRef struct {
	seed int64
	step int
}

// request is one timed operation.
type request struct {
	url  string
	body []byte
	ref  scenRef
}

// source is one client's seeded request sequence. next issues whatever
// untimed requests the next timed one needs (session create and delete)
// and returns it; close ends any open session.
type source interface {
	next(h *httpClient) (request, error)
	close(h *httpClient) error
}

// hotSource draws Zipf keys over the shared prewarmed population.
type hotSource struct {
	url  string
	pop  []hotItem
	zipf *rand.Zipf
}

type hotItem struct {
	seed int64
	body []byte
}

func (s *hotSource) next(*httpClient) (request, error) {
	it := s.pop[s.zipf.Uint64()]
	return request{url: s.url, body: it.body, ref: scenRef{seed: it.seed}}, nil
}

func (s *hotSource) close(*httpClient) error { return nil }

// coldSource renders a fresh scenario for every request.
type coldSource struct {
	url     string
	rec     *recipe
	suffix  []byte
	w       workload
	purpose int
	seq     *sequence
}

func (s *coldSource) next(*httpClient) (request, error) {
	seed := scenarioSeed(s.w, s.purpose, s.seq.next())
	return request{url: s.url + "/v1/plan", body: s.rec.body(s.rec.scenario(seed), s.suffix), ref: scenRef{seed: seed}}, nil
}

func (s *coldSource) close(*httpClient) error { return nil }

// sessionSource runs session lifecycles on fresh scenarios: create, one
// script step per timed request, delete.
type sessionSource struct {
	coldSource
	id    string
	scen  int64 // seed of the open lifecycle's scenario
	steps []scenario.Delta
	pos   int
}

func (s *sessionSource) next(h *httpClient) (request, error) {
	for s.id == "" || s.pos == len(s.steps) {
		if err := s.close(h); err != nil {
			return request{}, err
		}
		s.scen = scenarioSeed(s.w, s.purpose, s.seq.next())
		sc := s.rec.scenario(s.scen)
		s.steps, s.pos = s.rec.sessionScript(sc), 0
		if len(s.steps) == 0 {
			continue
		}
		code, body, err := h.do(http.MethodPost, s.url+"/v1/session", s.rec.body(sc, s.suffix))
		if err != nil || code != http.StatusCreated {
			return request{}, fmt.Errorf("session create: status %d: %v", code, err)
		}
		var created wire.SessionResponse
		if err := json.Unmarshal(body, &created); err != nil {
			return request{}, fmt.Errorf("session create: %w", err)
		}
		s.id = created.Session.ID
	}
	body, err := deltaBody(s.steps[s.pos])
	if err != nil {
		return request{}, err
	}
	s.pos++
	return request{url: s.url + "/v1/session/" + s.id + "/delta", body: body, ref: scenRef{seed: s.scen, step: s.pos}}, nil
}

func (s *sessionSource) close(h *httpClient) error {
	if s.id == "" {
		return nil
	}
	code, _, err := h.do(http.MethodDelete, s.url+"/v1/session/"+s.id, nil)
	s.id = ""
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("session delete: status %d: %v", code, err)
	}
	return nil
}

// abandon forgets a session whose delta failed; its state is unknown.
func (s *sessionSource) abandon(h *httpClient) {
	_ = s.close(h) // the lifecycle is already failed; a failed delete adds nothing
	s.pos = len(s.steps)
}

// stand is a booted fleet with its clients, ready for the timed window.
type stand struct {
	w      workload
	rec    *recipe
	lc     *loadgen.LocalCluster
	hcs    []*httpClient
	srcs   []source
	suffix []byte
}

func (st *stand) close() {
	for _, h := range st.hcs {
		h.tr.CloseIdleConnections()
	}
	st.lc.Close()
}

// newSource returns client's request sequence: the warm-up sequence in
// universe order when rng is nil, else the timed one ordered by rng.
func (st *stand) newSource(client int, rng *rand.Rand, pop []hotItem) source {
	url := st.lc.URLs[0]
	if st.w.kind == kindHot {
		if rng == nil {
			rng = rand.New(rand.NewSource(scenarioSeed(st.w, purposeWarm, client)))
		}
		return &hotSource{url: url + "/v1/plan", pop: pop, zipf: newZipf(rng, len(pop))}
	}
	purpose := purposeTimed
	if rng == nil {
		purpose = purposeWarm
	}
	cs := coldSource{url: url, rec: st.rec, suffix: st.suffix, w: st.w, purpose: purpose, seq: &sequence{client: client, rng: rng}}
	if st.w.kind == kindSession {
		return &sessionSource{coldSource: cs}
	}
	return &cs
}

func newZipf(rng *rand.Rand, n int) *rand.Zipf {
	return rand.NewZipf(rng, hotZipfS, 1, uint64(n-1))
}

// hotPopulation renders the plan_hot population.
func hotPopulation(rec *recipe, w workload, suffix []byte) []hotItem {
	pop := make([]hotItem, hotScenarios)
	for i := range pop {
		s := scenarioSeed(w, purposePopulation, i)
		pop[i] = hotItem{seed: s, body: rec.body(rec.scenario(s), suffix)}
	}
	return pop
}

// eachClient runs fn once per client concurrently and returns the first
// error.
func eachClient(fn func(c int) error) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = fn(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setUp boots a one-node fleet, renders the population, prewarms it and
// runs the untimed warm-up, leaving the timed sources in place.
func setUp(w workload, rec *recipe, seed int64) (*stand, error) {
	suffix, err := requestSuffix(w.algorithm)
	if err != nil {
		return nil, err
	}
	lc, err := loadgen.StartLocal(1, server.Config{}, cluster.Config{})
	if err != nil {
		return nil, err
	}
	st := &stand{w: w, rec: rec, lc: lc, suffix: suffix}
	for c := 0; c < clients; c++ {
		st.hcs = append(st.hcs, newHTTPClient())
	}
	var pop []hotItem
	if w.kind == kindHot {
		pop = hotPopulation(rec, w, suffix)
		err := eachClient(func(c int) error {
			for i := c; i < len(pop); i += clients {
				if code, _, err := st.hcs[c].do(http.MethodPost, lc.URLs[0]+"/v1/plan", pop[i].body); err != nil || code != http.StatusOK {
					return fmt.Errorf("prewarm: status %d: %v", code, err)
				}
			}
			return nil
		})
		if err != nil {
			st.close()
			return nil, err
		}
	}
	err = eachClient(func(c int) error {
		src := st.newSource(c, nil, pop)
		for i := 0; i < w.warmOps; i++ {
			req, err := src.next(st.hcs[c])
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if code, _, err := st.hcs[c].do(http.MethodPost, req.url, req.body); err != nil || code != http.StatusOK {
				return fmt.Errorf("warm-up: status %d: %v", code, err)
			}
		}
		return src.close(st.hcs[c])
	})
	if err != nil {
		st.close()
		return nil, err
	}
	for c := 0; c < clients; c++ {
		st.srcs = append(st.srcs, st.newSource(c, clientRand(w, seed, c), pop))
	}
	return st, nil
}

// answer is one timed operation's outcome. It holds no pointer, so the
// collector does not scan the window's growing answer log.
type answer struct {
	ref    scenRef
	status int
	plan   int // index into the client's interned plans; -1 without one
	hit    bool
}

// clientLog is what one client recorded in the timed window.
type clientLog struct {
	samples  []time.Duration // latencies
	answers  []answer
	plans    [][]byte
	interned map[string]int
}

func (l *clientLog) intern(plan []byte) int {
	if i, ok := l.interned[string(plan)]; ok {
		return i
	}
	i := len(l.plans)
	l.interned[string(plan)] = i
	l.plans = append(l.plans, bytes.Clone(plan))
	return i
}

// planReply is the part of a plan or delta response the benchmark reads.
type planReply struct {
	Plan    json.RawMessage  `json:"plan"`
	Cache   wire.CacheInfo   `json:"cache"`
	Session wire.SessionInfo `json:"session"`
}

// drive runs the timed window: every client issues its sequence back to
// back until the window closes, then ends its open session.
func (st *stand) drive(window time.Duration) ([]*clientLog, time.Duration, error) {
	logs := make([]*clientLog, clients)
	start := time.Now()
	deadline := start.Add(window)
	err := eachClient(func(c int) error {
		h, src := st.hcs[c], st.srcs[c]
		cl := &clientLog{interned: make(map[string]int)}
		logs[c] = cl
		for time.Now().Before(deadline) {
			req, err := src.next(h)
			if err != nil {
				return err
			}
			t0 := time.Now()
			code, body, err := h.do(http.MethodPost, req.url, req.body)
			cl.samples = append(cl.samples, time.Since(t0))
			a := answer{ref: req.ref, status: code, plan: -1}
			var reply planReply
			if err == nil && code == http.StatusOK && json.Unmarshal(body, &reply) == nil {
				a.plan, a.hit = cl.intern(reply.Plan), reply.Cache.Status == "hit"
				if st.w.kind == kindSession && reply.Session.Deltas != req.ref.step {
					return fmt.Errorf("%w: session script at step %d, server applied %d deltas", errSelfCheck, req.ref.step, reply.Session.Deltas)
				}
			} else if code == http.StatusOK {
				a.status = 0 // undecodable answer
			}
			if ss, ok := src.(*sessionSource); ok && a.status != http.StatusOK {
				ss.abandon(h)
			}
			cl.answers = append(cl.answers, a)
		}
		return src.close(h)
	})
	return logs, time.Since(start), err
}

// runHTTP is the untimed-tracing invocation: set up setupRounds times, run
// the timed window on the last stand, check every answer and report the
// end-to-end metrics.
func runHTTP(w workload, seed int64, window time.Duration) (*result, error) {
	rec, err := newRecipe()
	if err != nil {
		return nil, err
	}
	var setups []float64
	var st *stand
	for i := 0; i < setupRounds; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		if st, err = setUp(w, rec, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()

	logs, elapsed, err := st.drive(window)
	if err != nil {
		return nil, err
	}
	res := &result{statuses: make(map[int]int), setups: setups}
	var lat []time.Duration
	cacheHits, answered := 0, 0
	for _, l := range logs {
		lat = append(lat, l.samples...)
		for _, a := range l.answers {
			res.attempted++
			if a.status != http.StatusOK {
				res.statuses[a.status]++
			} else if st.w.kind != kindSession {
				answered++
				if a.hit {
					cacheHits++
				}
			}
		}
	}
	if res.attempted == 0 {
		return nil, fmt.Errorf("%w: no timed operation completed", errSelfCheck)
	}
	if w.kind != kindSession {
		ratio := float64(cacheHits) / float64(max(answered, 1))
		if want := map[kind]float64{kindHot: 1, kindCold: 0}[w.kind]; ratio != want {
			res.selfChecks = append(res.selfChecks, fmt.Errorf("%w: plan cache hit ratio %.4f, want %g", errSelfCheck, ratio, want))
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if beyond := len(lat) - 1 - rank(len(lat), 0.99); beyond < minTail {
		res.selfChecks = append(res.selfChecks, fmt.Errorf("%w: %d of %d samples beyond p99", errShortWindow, beyond, len(lat)))
	}
	cost, satisfied := checkLogs(res, w, rec, logs)

	// The window runs until the last operation started in it ends.
	res.add("p50_ms", "ms", ms(quantile(lat, 0.5)))
	res.add("p99_ms", "ms", ms(quantile(lat, 0.99)))
	res.add("throughput_rps", "1/s", float64(len(lat))/elapsed.Seconds())
	res.add("success_ratio", "ratio", float64(res.attempted-res.failed)/float64(res.attempted))
	res.add("repair_cost", "cost", cost)
	res.add("satisfied_ratio", "ratio", satisfied)
	res.add("setup_s", "s", median(setups))

	// The live heap is read with everything the generator holds released:
	// request bodies, sources and the recorded answers.
	st.srcs, logs, lat = nil, nil, nil
	runtime.GC()
	res.add("heap_live_mb", "MB", liveHeapMB())
	return res, nil
}

// checkLogs checks every answered plan and returns the mean recomputed
// repair cost and mean satisfied ratio over the distinct scenarios
// answered. Failed checks count against the result.
func checkLogs(res *result, w workload, rec *recipe, logs []*clientLog) (cost, satisfied float64) {
	type quality struct{ cost, satisfied float64 }
	distinct := make(map[scenRef]quality)
	scen := newScenarioCache(rec)
	for _, l := range logs {
		type key struct {
			ref  scenRef
			plan int
		}
		verdicts := make(map[key]error)
		for _, a := range l.answers {
			if a.status != http.StatusOK {
				res.failed++
				continue
			}
			k := key{a.ref, a.plan}
			err, seen := verdicts[k]
			if !seen {
				var wp wire.Plan
				if err = json.Unmarshal(l.plans[a.plan], &wp); err == nil {
					var c float64
					if c, err = checkAnswer(scen.get(a.ref), w.algorithm, &wp); err == nil {
						if _, dup := distinct[a.ref]; !dup {
							distinct[a.ref] = quality{c, wp.SatisfiedRatio}
						}
					}
				}
				verdicts[k] = err
			}
			if err != nil {
				res.fail("%s seed %d step %d: %v", w.name, a.ref.seed, a.ref.step, err)
			}
		}
	}
	for _, q := range distinct {
		cost += q.cost
		satisfied += q.satisfied
	}
	if n := float64(len(distinct)); n > 0 {
		cost, satisfied = cost/n, satisfied/n
	}
	return cost, satisfied
}

// scenarioCache rebuilds the scenario behind a scenRef, replaying a session
// script incrementally when answers arrive in script order.
type scenarioCache struct {
	rec   *recipe
	ref   scenRef
	s     *scenario.Scenario
	steps []scenario.Delta
}

func newScenarioCache(rec *recipe) *scenarioCache { return &scenarioCache{rec: rec} }

func (c *scenarioCache) get(ref scenRef) *scenario.Scenario {
	if c.s == nil || ref.seed != c.ref.seed || ref.step < c.ref.step {
		c.s = c.rec.scenario(ref.seed)
		c.ref = scenRef{seed: ref.seed}
		if ref.step > 0 {
			c.steps = c.rec.sessionScript(c.s)
		}
	}
	for c.ref.step < ref.step {
		next, err := c.s.Apply(c.steps[c.ref.step])
		if err != nil {
			panic(fmt.Sprintf("session script step %d does not apply: %v", c.ref.step, err))
		}
		c.s = next
		c.ref.step++
	}
	return c.s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	return sorted[rank(len(sorted), q)]
}

func rank(n int, q float64) int {
	i := int(q*float64(n)+0.9999999) - 1
	return min(max(i, 0), n-1)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// liveHeapMB is the heap the last GC found live.
func liveHeapMB() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}
