package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"netrecovery/internal/wire"
)

// postJSON posts a JSON body and decodes the response into out (when the
// status is 2xx); it always returns the status code.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode < 300 && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad response %s: %v", data, err)
		}
	}
	return resp.StatusCode
}

// openSession creates a session on the diamond scenario and returns the
// create response.
func openSession(t *testing.T, ts *httptest.Server, alg string) wire.SessionResponse {
	t.Helper()
	var resp wire.SessionResponse
	code := postJSON(t, ts.URL+"/v1/session", wire.SessionRequest{Scenario: testScenarioJSON(), Algorithm: alg}, &resp)
	if code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	if resp.Session.ID == "" || resp.Plan.Algorithm == "" {
		t.Fatalf("create session: incomplete response %+v", resp)
	}
	return resp
}

// normalizePlan zeroes the wall-clock field so plan comparisons cover every
// answer field without being trivially broken by timing.
func normalizePlan(p wire.Plan) wire.Plan {
	p.RuntimeMS = 0
	return p
}

// planBytes is the canonical wire encoding used for byte-identity checks.
func planBytes(t *testing.T, p wire.Plan) string {
	t.Helper()
	raw, err := json.Marshal(normalizePlan(p))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestSessionDeltaMatchesColdPlan drives a session through a delta sequence
// and checks, at every step, that the session's warm re-plan is
// byte-identical (wire encoding, runtime zeroed) to a cold /v1/plan solve of
// the same resulting scenario.
func TestSessionDeltaMatchesColdPlan(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	created := openSession(t, ts, "") // default ISP: the warm path
	if !created.Session.Warm {
		t.Fatalf("ISP session not warm: %+v", created.Session)
	}
	id := created.Session.ID

	// The evolving scenario, mirrored client-side so each step can be
	// re-posted cold to /v1/plan.
	sc := testScenarioJSON()
	steps := []struct {
		delta wire.Delta
		apply func(*wire.Scenario)
	}{
		{wire.Delta{Kind: wire.DeltaRepairNode, Node: 3}, func(s *wire.Scenario) { s.BrokenNodes = []int{1} }},
		{wire.Delta{Kind: wire.DeltaRepairLink, Link: 2}, func(s *wire.Scenario) { s.BrokenLinks = []int{0} }},
		{wire.Delta{Kind: wire.DeltaSetDemand, Pair: 0, Flow: 3}, func(s *wire.Scenario) { s.Demands[0].Flow = 3 }},
		{wire.Delta{Kind: wire.DeltaBreakNode, Node: 3}, func(s *wire.Scenario) { s.BrokenNodes = []int{1, 3} }},
	}
	for i, step := range steps {
		var dresp wire.DeltaResponse
		code := postJSON(t, ts.URL+"/v1/session/"+id+"/delta", wire.DeltaRequest{Deltas: []wire.Delta{step.delta}}, &dresp)
		if code != http.StatusOK {
			t.Fatalf("step %d: delta status %d", i, code)
		}
		step.apply(&sc)
		// Cold solve of the same scenario, bypassing the cache so it is a
		// genuine from-scratch rebuild.
		var cold wire.PlanResponse
		code = postJSON(t, ts.URL+"/v1/plan", wire.PlanRequest{Scenario: sc, Options: wire.SolveOptions{NoCache: true}}, &cold)
		if code != http.StatusOK {
			t.Fatalf("step %d: cold plan status %d", i, code)
		}
		if got, want := planBytes(t, dresp.Plan), planBytes(t, cold.Plan); got != want {
			t.Errorf("step %d (%+v): session plan diverged from cold solve:\nwarm %s\ncold %s", i, step.delta, got, want)
		}
		if dresp.Plan.ScenarioFingerprint != cold.Plan.ScenarioFingerprint {
			t.Errorf("step %d: fingerprint mismatch", i)
		}
		if dresp.Session.Deltas != i+1 || dresp.Session.Plans != i+2 {
			t.Errorf("step %d: session counters %+v", i, dresp.Session)
		}
	}

	// GET returns the last plan; DELETE closes; a second GET is a 404.
	var got wire.SessionResponse
	if code := getJSON(t, ts.URL+"/v1/session/"+id, &got); code != http.StatusOK {
		t.Fatalf("get session: status %d", code)
	}
	if got.Session.Plans != len(steps)+1 {
		t.Fatalf("get session: plans = %d, want %d", got.Session.Plans, len(steps)+1)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete session: status %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/v1/session/"+id, &got); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", code)
	}
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode < 300 && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad response %s: %v", data, err)
		}
	}
	return resp.StatusCode
}

func TestSessionInvalidDeltaIsAtomic(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	created := openSession(t, ts, "")
	id := created.Session.ID

	// Valid delta followed by an invalid one in the same batch: 409, nothing
	// applied.
	code := postJSON(t, ts.URL+"/v1/session/"+id+"/delta", wire.DeltaRequest{Deltas: []wire.Delta{
		{Kind: wire.DeltaRepairNode, Node: 3},
		{Kind: wire.DeltaBreakNode, Node: 1}, // already broken
	}}, nil)
	if code != http.StatusConflict {
		t.Fatalf("invalid delta batch: status %d, want 409", code)
	}
	var got wire.SessionResponse
	getJSON(t, ts.URL+"/v1/session/"+id, &got)
	if got.Session.Fingerprint != created.Session.Fingerprint {
		t.Fatalf("failed batch changed the scenario fingerprint")
	}
	if got.Session.Deltas != 0 {
		t.Fatalf("failed batch counted deltas: %+v", got.Session)
	}

	// Unknown kinds and empty batches are 400s.
	if code := postJSON(t, ts.URL+"/v1/session/"+id+"/delta", wire.DeltaRequest{Deltas: []wire.Delta{{Kind: "melt_node"}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/session/"+id+"/delta", wire.DeltaRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", code)
	}
	// Unknown session: 404.
	if code := postJSON(t, ts.URL+"/v1/session/nope/delta", wire.DeltaRequest{Deltas: []wire.Delta{{Kind: wire.DeltaRepairNode, Node: 3}}}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", code)
	}
}

func TestSessionTTLEviction(t *testing.T) {
	clock := time.Now()
	var mu sync.Mutex
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}
	srv := New(Config{SessionTTL: time.Minute, Now: now})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	created := openSession(t, ts, "")
	id := created.Session.ID
	if created.Session.IdleTTLMS != time.Minute.Milliseconds() {
		t.Fatalf("idle TTL = %d ms", created.Session.IdleTTLMS)
	}

	// Within the TTL the session survives (and use resets the timer).
	mu.Lock()
	clock = clock.Add(45 * time.Second)
	mu.Unlock()
	if code := getJSON(t, ts.URL+"/v1/session/"+id, nil); code != http.StatusOK {
		t.Fatalf("session evicted before TTL: %d", code)
	}
	mu.Lock()
	clock = clock.Add(45 * time.Second)
	mu.Unlock()
	if code := getJSON(t, ts.URL+"/v1/session/"+id, nil); code != http.StatusOK {
		t.Fatalf("session evicted though use reset the timer: %d", code)
	}

	// Past the idle TTL the next operation evicts it.
	mu.Lock()
	clock = clock.Add(2 * time.Minute)
	mu.Unlock()
	if code := getJSON(t, ts.URL+"/v1/session/"+id, nil); code != http.StatusNotFound {
		t.Fatalf("expired session still served: %d", code)
	}
	metrics := fetchMetrics(t, ts)
	for _, want := range []string{"nrserved_sessions 0", "nrserved_sessions_expired_total 1", "nrserved_sessions_opened_total 1"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func fetchMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

func TestSessionCapacity(t *testing.T) {
	srv := New(Config{MaxSessions: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	created := openSession(t, ts, "")
	if code := postJSON(t, ts.URL+"/v1/session", wire.SessionRequest{Scenario: testScenarioJSON()}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("second session: status %d, want 503", code)
	}
	// Closing the first frees the slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+created.Session.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	openSession(t, ts, "")
}

// TestSessionAdmissionAccounting: session re-plans consume the same
// admission tokens as /v1/plan solves — with MaxInFlight=1, two concurrent
// deltas on two sessions never solve at the same time.
func TestSessionAdmissionAccounting(t *testing.T) {
	srv := New(Config{MaxInFlight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Sessions on the gated solver run every re-plan cold through the
	// registry, which lets the test hold a solve open.
	a := openSession(t, ts, "GATED-test")
	b := openSession(t, ts, "GATED-test")
	solvesBefore := srv.SolveCount()

	g := &gateState{started: make(chan struct{}, 2), release: make(chan struct{})}
	gate.Store(g)
	defer gate.Store(nil)

	delta := wire.DeltaRequest{Deltas: []wire.Delta{{Kind: wire.DeltaRepairNode, Node: 3}}}
	var wg sync.WaitGroup
	for _, id := range []string{a.Session.ID, b.Session.ID} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if code := postJSON(t, ts.URL+"/v1/session/"+id+"/delta", delta, nil); code != http.StatusOK {
				t.Errorf("delta on %s: status %d", id, code)
			}
		}(id)
	}
	<-g.started
	time.Sleep(50 * time.Millisecond)
	if got := g.solves.Load(); got != 1 {
		t.Fatalf("%d session re-plans admitted concurrently, want 1", got)
	}
	close(g.release)
	wg.Wait()
	if got := srv.SolveCount() - solvesBefore; got != 2 {
		t.Fatalf("session re-plans recorded %d solves, want 2", got)
	}
}

// TestSessionEvictionDoesNotWaitForSolves: while one session's re-plan is
// held inside its solver, a delta on another session and a /metrics scrape
// (both of which run idle-session eviction) still complete.
func TestSessionEvictionDoesNotWaitForSolves(t *testing.T) {
	srv := New(Config{MaxInFlight: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	held := openSession(t, ts, "GATED-test")
	other := openSession(t, ts, "")

	g := &gateState{started: make(chan struct{}, 1), release: make(chan struct{})}
	gate.Store(g)
	defer gate.Store(nil)

	delta := wire.DeltaRequest{Deltas: []wire.Delta{{Kind: wire.DeltaRepairNode, Node: 3}}}
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(3)
	go func() {
		defer wg.Done()
		if code := postJSON(t, ts.URL+"/v1/session/"+held.Session.ID+"/delta", delta, nil); code != http.StatusOK {
			t.Errorf("held delta: status %d", code)
		}
	}()
	<-g.started
	defer close(g.release)

	otherDone := make(chan int, 1)
	go func() {
		defer wg.Done()
		otherDone <- postJSON(t, ts.URL+"/v1/session/"+other.Session.ID+"/delta", delta, nil)
	}()
	metricsDone := make(chan string, 1)
	go func() {
		defer wg.Done()
		metricsDone <- fetchMetrics(t, ts)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	select {
	case code := <-otherDone:
		if code != http.StatusOK {
			t.Errorf("delta on the other session: status %d", code)
		}
	case <-ctx.Done():
		t.Error("delta on another session blocked behind the held re-plan")
	}
	select {
	case metrics := <-metricsDone:
		if !strings.Contains(metrics, "nrserved_sessions 2") {
			t.Errorf("metrics during the held re-plan lack the two sessions:\n%s", metrics)
		}
	case <-ctx.Done():
		t.Error("/metrics blocked behind the held re-plan")
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	event string
	data  string
}

// readSSE parses events off the stream until fn returns false or the stream
// ends.
func readSSE(r *bufio.Reader, fn func(sseEvent) bool) error {
	var ev sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if ev.event != "" {
				if !fn(ev) {
					return nil
				}
			}
			ev = sseEvent{}
		}
	}
}

// TestSessionStream: the SSE feed delivers the current plan on subscribe,
// every delta-triggered re-plan, and a terminal end event when the session
// is closed.
func TestSessionStream(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	created := openSession(t, ts, "")
	id := created.Session.ID

	resp, err := http.Get(ts.URL + "/v1/session/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("stream: status %d type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	events := make(chan sseEvent, 16)
	go func() {
		defer close(events)
		_ = readSSE(bufio.NewReader(resp.Body), func(ev sseEvent) bool {
			events <- ev
			return true
		})
	}()
	next := func() sseEvent {
		select {
		case ev := <-events:
			return ev
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for SSE event")
			return sseEvent{}
		}
	}

	// Initial snapshot.
	ev := next()
	if ev.event != "plan" {
		t.Fatalf("first event = %q, want plan", ev.event)
	}
	var snap wire.SessionResponse
	if err := json.Unmarshal([]byte(ev.data), &snap); err != nil {
		t.Fatalf("initial plan event: %v", err)
	}
	if snap.Session.ID != id {
		t.Fatalf("initial event for session %q, want %q", snap.Session.ID, id)
	}

	// A delta pushes the re-planned plan to the stream.
	var dresp wire.DeltaResponse
	code := postJSON(t, ts.URL+"/v1/session/"+id+"/delta",
		wire.DeltaRequest{Deltas: []wire.Delta{{Kind: wire.DeltaRepairNode, Node: 3}}}, &dresp)
	if code != http.StatusOK {
		t.Fatalf("delta: status %d", code)
	}
	ev = next()
	if ev.event != "plan" {
		t.Fatalf("delta event = %q, want plan", ev.event)
	}
	var update wire.DeltaResponse
	if err := json.Unmarshal([]byte(ev.data), &update); err != nil {
		t.Fatal(err)
	}
	if planBytes(t, update.Plan) != planBytes(t, dresp.Plan) {
		t.Fatalf("streamed plan differs from the delta response")
	}

	// Closing the session terminates the stream with an end event.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+id, nil)
	dresp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	ev = next()
	if ev.event != "end" {
		t.Fatalf("terminal event = %q, want end", ev.event)
	}
	if _, open := <-events; open {
		// Stream should close after the terminal event (server closed the
		// subscription channel; the handler returned).
		t.Fatal("stream still open after end event")
	}
}

func ExampleServer_sessions() {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(wire.SessionRequest{Scenario: wire.Scenario{
		Nodes:       []wire.Node{{RepairCost: 1}, {RepairCost: 1}},
		Links:       []wire.Link{{From: 0, To: 1, Capacity: 10, RepairCost: 1}},
		Demands:     []wire.Demand{{Source: 0, Target: 1, Flow: 5}},
		BrokenLinks: []int{0},
	}})
	resp, err := http.Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	var created wire.SessionResponse
	json.NewDecoder(resp.Body).Decode(&created)
	fmt.Println(resp.StatusCode, created.Session.Warm, created.Plan.LinkRepairs)
	// Output: 201 true 1
}
