package pipeline_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"netrecovery/internal/degrade"
	"netrecovery/internal/faultinject"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/pipeline"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
	"netrecovery/internal/wire"
)

// diamond is a four-node ring with two broken nodes and links.
func diamond(t *testing.T) *scenario.Scenario {
	t.Helper()
	s, err := wire.Scenario{
		Nodes: []wire.Node{{RepairCost: 1}, {X: 1, RepairCost: 2}, {X: 1, Y: 1, RepairCost: 3}, {Y: 1, RepairCost: 4}},
		Links: []wire.Link{
			{From: 0, To: 1, Capacity: 10, RepairCost: 1},
			{From: 1, To: 2, Capacity: 10, RepairCost: 2},
			{From: 2, To: 3, Capacity: 10, RepairCost: 3},
			{From: 3, To: 0, Capacity: 10, RepairCost: 4},
		},
		Demands:     []wire.Demand{{Source: 0, Target: 2, Flow: 5}},
		BrokenNodes: []int{1, 3},
		BrokenLinks: []int{0, 2},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// transientErr is a retryable solver failure.
type transientErr struct{ alg string }

func (e transientErr) Error() string   { return e.alg + ": induced transient failure" }
func (e transientErr) Transient() bool { return true }

// stubSolves answers every solve with a plan named after the algorithm,
// except for the algorithms in fail, which fail transiently.
func stubSolves(fail ...string) func(context.Context, string, heuristics.Solver, *scenario.Scenario) (*scenario.Plan, error) {
	return func(_ context.Context, alg string, _ heuristics.Solver, _ *scenario.Scenario) (*scenario.Plan, error) {
		for _, f := range fail {
			if alg == f {
				return nil, transientErr{alg}
			}
		}
		return scenario.NewPlan(alg), nil
	}
}

// stage is one chain stage's record; Err is the failure or skip reason.
type stage struct {
	Name, Outcome string
	Attempts      int
	Err           string
}

const (
	optErr = "OPT: induced transient failure"
	ispErr = "ISP: induced transient failure"
)

// immediate makes retry backoffs instantaneous.
func immediate(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// TestChainConfigurations pins the chain every surface runs — stage list,
// outcomes and attempts, the serving stage and the cache status — for each
// configuration in use: a cache (server, Planner WithCache), no cache (CLI,
// Planner), a no_cache request, a fast-ISP primary, an open breaker, a
// cache-shard fault and an expired entry served stale.
func TestChainConfigurations(t *testing.T) {
	opt, fastISP := heuristics.Params{}, heuristics.Params{Fast: true}
	cases := []struct {
		name      string
		cache     bool
		prime     bool // solve once healthy, then let the entry expire
		blocked   string
		shard     bool
		noCache   bool
		fail      []string
		alg       string
		params    heuristics.Params
		want      []stage
		wantBy    string // "" = exhausted
		wantCache string
	}{
		{
			name: "cache", cache: true, fail: []string{"OPT"}, alg: "OPT", params: opt,
			want:   []stage{{"primary", "error", 2, optErr}, {"fallback_isp", "served", 1, ""}},
			wantBy: "fallback_isp", wantCache: pipeline.StatusMiss,
		},
		{
			name: "no cache", fail: []string{"OPT", "ISP"}, alg: "OPT", params: opt,
			want: []stage{{"primary", "error", 2, optErr}, {"fallback_isp", "error", 2, ispErr}, {"stale_cache", "skipped", 0, "no cache configured"}},
		},
		{
			name: "no_cache request", cache: true, noCache: true, fail: []string{"OPT", "ISP"}, alg: "OPT", params: opt,
			want: []stage{{"primary", "error", 2, optErr}, {"fallback_isp", "error", 2, ispErr}, {"stale_cache", "skipped", 0, "cache disabled by request"}},
		},
		{
			name: "fast-ISP primary", cache: true, alg: "ISP", params: fastISP,
			want:   []stage{{"primary", "served", 1, ""}},
			wantBy: "primary", wantCache: pipeline.StatusMiss,
		},
		{
			name: "fast-ISP primary failing", cache: true, fail: []string{"ISP"}, alg: "ISP", params: fastISP,
			want: []stage{{"primary", "error", 2, ispErr}, {"stale_cache", "unavailable", 1, ""}},
		},
		{
			name: "breaker open", cache: true, blocked: "OPT", alg: "OPT", params: opt,
			want:   []stage{{"primary", "skipped", 0, "circuit breaker open for OPT"}, {"fallback_isp", "served", 1, ""}},
			wantBy: "fallback_isp", wantCache: pipeline.StatusMiss,
		},
		{
			name: "shard fault", cache: true, shard: true, fail: []string{"OPT"}, alg: "OPT", params: opt,
			want:   []stage{{"primary", "error", 2, optErr}, {"fallback_isp", "served", 1, ""}},
			wantBy: "fallback_isp", wantCache: pipeline.StatusBypass,
		},
		{
			name: "stale", cache: true, prime: true, fail: []string{"OPT", "ISP"}, alg: "OPT", params: opt,
			want:   []stage{{"primary", "error", 2, optErr}, {"fallback_isp", "error", 2, ispErr}, {"stale_cache", "served", 1, ""}},
			wantBy: "stale_cache", wantCache: pipeline.StatusStale,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := time.Unix(1700000000, 0)
			p := pipeline.Pipeline{
				Retry: degrade.RetryPolicy{MaxAttempts: 2, Sleep: immediate},
				Now:   func() time.Time { return clock },
			}
			if tc.cache {
				p.Cache = plancache.New(plancache.Config{TTL: time.Minute, Now: func() time.Time { return clock }})
			}
			if tc.blocked != "" {
				p.Blocked = func(alg string) bool { return alg == tc.blocked }
			}
			req := pipeline.Request{Scenario: diamond(t), Algorithm: tc.alg, Params: tc.params, NoCache: tc.noCache, Deadline: 5 * time.Second}
			if tc.prime {
				p.Solve = stubSolves()
				if _, err := p.Plan(context.Background(), req); err != nil {
					t.Fatal(err)
				}
				clock = clock.Add(2 * time.Minute)
			}
			if tc.shard {
				faultinject.Arm(faultinject.Profile{Seed: 1, Points: map[faultinject.Point]faultinject.Spec{
					faultinject.PointCacheShard: {ErrorRate: 1},
				}})
				defer faultinject.Disarm()
			}
			p.Solve = stubSolves(tc.fail...)
			res, err := p.Plan(context.Background(), req)
			if tc.wantBy == "" {
				if !errors.Is(err, degrade.ErrExhausted) {
					t.Fatalf("err = %v, want an exhausted chain", err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			var got []stage
			for _, st := range res.Chain.Stages {
				sg := stage{st.Name, st.Outcome, st.Attempts, ""}
				if st.Err != nil {
					sg.Err = st.Err.Error()
				}
				got = append(got, sg)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("stages = %+v, want %+v", got, tc.want)
			}
			if res.Chain.ServedBy != tc.wantBy || res.Status != tc.wantCache || (res.Plan != nil) != (tc.wantBy != "") {
				t.Fatalf("served by %q with cache status %q (plan %v), want %q / %q", res.Chain.ServedBy, res.Status, res.Plan, tc.wantBy, tc.wantCache)
			}
		})
	}
}

// TestCachedSolveStatuses pins the no-deadline cached solve: miss then hit,
// a peer fill inside the coalescing leader, a bypassing request, a shard
// fault answered by a direct solve, and retries inside the leader.
func TestCachedSolveStatuses(t *testing.T) {
	ctx := context.Background()
	s := diamond(t)
	var solves int
	p := pipeline.Pipeline{
		Cache: plancache.New(plancache.Config{}),
		Retry: degrade.RetryPolicy{MaxAttempts: 3, Sleep: immediate},
		Solve: func(ctx context.Context, alg string, solver heuristics.Solver, s *scenario.Scenario) (*scenario.Plan, error) {
			solves++
			if solves == 1 {
				return nil, transientErr{alg}
			}
			return scenario.NewPlan(alg), nil
		},
	}
	status := func(req pipeline.Request) string {
		t.Helper()
		res, err := p.Plan(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Chain != nil {
			t.Fatalf("no-deadline request ran the chain: %+v", res.Chain)
		}
		return res.Status
	}
	isp := pipeline.Request{Scenario: s, Algorithm: "ISP"}
	if got := status(isp); got != pipeline.StatusMiss || solves != 2 {
		t.Fatalf("first request: status %q after %d solve attempts, want miss after 2", got, solves)
	}
	if got := status(isp); got != pipeline.StatusHit || solves != 2 {
		t.Fatalf("repeat: status %q after %d solve attempts, want hit with no new solve", got, solves)
	}
	if got := status(pipeline.Request{Scenario: s, Algorithm: "ISP", NoCache: true}); got != pipeline.StatusBypass || solves != 3 {
		t.Fatalf("no_cache request: status %q after %d solve attempts, want bypass after 3", got, solves)
	}

	var fills int
	p.Fill = func(_ context.Context, key plancache.Key) (*scenario.Plan, bool) {
		fills++
		if key != (plancache.Key{Fingerprint: s.Fingerprint(), Algorithm: "SRT", Options: plancache.ParamsDigest(heuristics.Params{})}) {
			t.Errorf("fill asked for key %+v", key)
		}
		return scenario.NewPlan("SRT"), true
	}
	srt := pipeline.Request{Scenario: s, Algorithm: "SRT"}
	if got := status(srt); got != pipeline.StatusPeer || fills != 1 || solves != 3 {
		t.Fatalf("peer fill: status %q after %d fills / %d solve attempts, want peer after 1 / 3", got, fills, solves)
	}
	if got := status(srt); got != pipeline.StatusHit || fills != 1 {
		t.Fatalf("after fill: status %q after %d fills, want a hit on the stored fill", got, fills)
	}

	faultinject.Arm(faultinject.Profile{Seed: 1, Points: map[faultinject.Point]faultinject.Spec{
		faultinject.PointCacheShard: {ErrorRate: 1},
	}})
	defer faultinject.Disarm()
	if got := status(isp); got != pipeline.StatusBypass || solves != 4 {
		t.Fatalf("shard fault: status %q after %d solve attempts, want bypass after 4", got, solves)
	}
}
