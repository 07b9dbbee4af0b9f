package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"netrecovery/internal/cluster"
	"netrecovery/internal/server"
	"netrecovery/internal/wire"
)

// planVia posts body to target's /v1/plan and returns the cache status and
// the compacted plan bytes.
func planVia(t *testing.T, target string, body []byte) (string, []byte) {
	t.Helper()
	cache, _, plan := planResponse(t, target, body)
	return cache.Status, plan
}

// planResponse posts body to target's /v1/plan and returns the cache block,
// the degradation annotation and the compacted plan bytes.
func planResponse(t *testing.T, target string, body []byte) (wire.CacheInfo, *wire.Degradation, []byte) {
	t.Helper()
	resp, err := http.Post(target+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/plan: %d: %s", resp.StatusCode, raw)
	}
	var parsed struct {
		Plan        json.RawMessage   `json:"plan"`
		Cache       wire.CacheInfo    `json:"cache"`
		Degradation *wire.Degradation `json:"degradation"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, parsed.Plan); err != nil {
		t.Fatal(err)
	}
	return parsed.Cache, parsed.Degradation, compact.Bytes()
}

// itemFingerprints rebuilds the scenario fingerprints of a population (the
// bodies are wire JSON; the fingerprint is content-derived).
func itemFingerprints(t *testing.T, items []workItem) [][32]byte {
	t.Helper()
	fps := make([][32]byte, len(items))
	for i, item := range items {
		var req wire.PlanRequest
		if err := json.Unmarshal(item.planBody, &req); err != nil {
			t.Fatal(err)
		}
		s, err := req.Scenario.Build()
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = s.Fingerprint()
	}
	return fps
}

// TestPeerFillE2E is the multi-node acceptance path: a fingerprint solved
// on its owning node A is served from cache on node B — B answers with
// cache.status "peer" and a byte-identical plan, and B's next answer is a
// plain local hit.
func TestPeerFillE2E(t *testing.T) {
	lc, err := StartLocal(3, server.Config{}, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	items, err := buildPopulation(Spec{Scenarios: 1, Fast: true, Topology: "grid:4x4"}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	fp := itemFingerprints(t, items)[0]
	owner, nonOwner := lc.Owner(fp), lc.NonOwner(fp)
	if owner == nonOwner {
		t.Fatal("owner == nonOwner in a 3-node fleet")
	}

	status, ownerPlan := planVia(t, owner, items[0].planBody)
	if status != "miss" {
		t.Fatalf("owner solve: status %q, want miss", status)
	}
	status, peerPlan := planVia(t, nonOwner, items[0].planBody)
	if status != "peer" {
		t.Fatalf("non-owner: status %q, want peer", status)
	}
	if !bytes.Equal(ownerPlan, peerPlan) {
		t.Fatalf("peer-filled plan differs:\nowner %s\n peer %s", ownerPlan, peerPlan)
	}
	status, _ = planVia(t, nonOwner, items[0].planBody)
	if status != "hit" {
		t.Fatalf("non-owner repeat: status %q, want hit (fill stored locally)", status)
	}

	// The cluster counters saw exactly one dispatched fill that hit.
	var nonOwnerStats cluster.Stats
	for i, u := range lc.URLs {
		if u == nonOwner {
			nonOwnerStats = lc.Clusters[i].Stats()
		}
	}
	if nonOwnerStats.Fills != 1 || nonOwnerStats.Hits != 1 {
		t.Fatalf("non-owner cluster stats = %+v, want fills=1 hits=1", nonOwnerStats)
	}
}

// TestPeerFillUnderDeadline: with a server-wide degradation deadline every
// plan request answers through the fallback chain, and a non-owner's miss
// still peer-fills from the owner inside the chain's primary stage.
func TestPeerFillUnderDeadline(t *testing.T) {
	lc, err := StartLocal(3, server.Config{DegradeDeadline: 5 * time.Second}, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	items, err := buildPopulation(Spec{Scenarios: 1, Fast: true, Topology: "grid:4x4"}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	fp := itemFingerprints(t, items)[0]
	owner, nonOwner := lc.Owner(fp), lc.NonOwner(fp)

	status, ownerPlan := planVia(t, owner, items[0].planBody)
	if status != "miss" {
		t.Fatalf("owner solve: status %q, want miss", status)
	}
	cache, deg, peerPlan := planResponse(t, nonOwner, items[0].planBody)
	if cache.Status != "peer" {
		t.Fatalf("non-owner under a deadline: status %q, want peer", cache.Status)
	}
	if !bytes.Equal(ownerPlan, peerPlan) {
		t.Fatalf("peer-filled plan differs:\nowner %s\n peer %s", ownerPlan, peerPlan)
	}
	if deg == nil || deg.Level != "none" || deg.ServedBy != "primary" {
		t.Fatalf("degradation = %+v, want level none served by primary", deg)
	}
}

// TestRunClosedLoopFleet drives the full generator against a 3-node fleet:
// owner-warmed caches make the non-owners' first misses peer-fill, the run
// answers entirely 2xx, and the report's tallies are consistent.
func TestRunClosedLoopFleet(t *testing.T) {
	lc, err := StartLocal(3, server.Config{}, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	spec := Spec{
		Targets:     lc.URLs,
		MaxRequests: 60,
		Concurrency: 4,
		Scenarios:   8,
		Seed:        1,
		Fast:        true,
		Topology:    "grid:4x4",
	}
	// Warm every scenario at its owner so a non-owner's first request
	// deterministically exercises the peer-fill path.
	items, err := buildPopulation(spec.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range itemFingerprints(t, items) {
		if status, _ := planVia(t, lc.Owner(fp), items[i].planBody); status != "miss" {
			t.Fatalf("warm scenario %d: status %q, want miss", i, status)
		}
	}

	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "closed" {
		t.Fatalf("mode = %q, want closed", rep.Mode)
	}
	if rep.Requests != 60 || rep.OK2xx != 60 {
		t.Fatalf("requests=%d ok=%d, want 60/60 (errors=%d 4xx=%d 5xx=%d)",
			rep.Requests, rep.OK2xx, rep.Errors, rep.Err4xx, rep.Err5xx)
	}
	if rep.Err5xx != 0 || rep.Errors != 0 {
		t.Fatalf("errors in a healthy fleet: %+v", rep)
	}
	if rep.Ops.Plans != 60 {
		t.Fatalf("ops = %+v, want 60 plans", rep.Ops)
	}
	if rep.Cache.PeerFilled == 0 {
		t.Fatalf("no peer fills against owner-warmed fleet: %+v", rep.Cache)
	}
	if rep.Cache.Misses != 0 {
		t.Fatalf("local cold solves despite owner-warmed fleet: %+v", rep.Cache)
	}
	total := rep.Cache.Hits + rep.Cache.Misses + rep.Cache.Coalesced +
		rep.Cache.PeerFilled + rep.Cache.Bypass + rep.Cache.Stale
	if total != 60 {
		t.Fatalf("cache dispositions sum to %d, want 60: %+v", total, rep.Cache)
	}
	if rep.Cache.HitRatio != 1 {
		t.Fatalf("hit ratio = %v, want 1 (every answer cache-served)", rep.Cache.HitRatio)
	}
	if rep.Latency.P50MS <= 0 || rep.Latency.P99MS < rep.Latency.P50MS {
		t.Fatalf("implausible latency summary: %+v", rep.Latency)
	}
	if rep.ThroughputRPS <= 0 {
		t.Fatalf("throughput = %v", rep.ThroughputRPS)
	}
}

// TestRunOpenLoopAndMix covers the open loop (rate-driven, bounded queue)
// and the session/ensemble mix against a single node.
func TestRunOpenLoopAndMix(t *testing.T) {
	lc, err := StartLocal(1, server.Config{}, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	rep, err := Run(context.Background(), Spec{
		Targets:     lc.URLs,
		Duration:    time.Second,
		MaxRequests: 40,
		Concurrency: 2,
		Rate:        500,
		Scenarios:   4,
		Seed:        7,
		Fast:        true,
		Topology:    "grid:4x4",
		Mix:         Mix{Plan: 2, Session: 1, Ensemble: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" {
		t.Fatalf("mode = %q, want open", rep.Mode)
	}
	if rep.Requests == 0 || rep.Requests > 40 {
		t.Fatalf("requests = %d, want (0, 40]", rep.Requests)
	}
	if rep.Err5xx != 0 {
		t.Fatalf("5xx from a healthy node: %+v", rep)
	}
	if rep.Ops.Plans+rep.Ops.Sessions+rep.Ops.Ensembles != rep.Requests {
		t.Fatalf("ops %+v do not sum to %d", rep.Ops, rep.Requests)
	}
	if rep.Ops.Sessions == 0 && rep.Ops.Ensembles == 0 {
		t.Fatal("mix produced no session or ensemble ops")
	}
}
