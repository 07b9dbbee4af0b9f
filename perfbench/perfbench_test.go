package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/graph"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
	"netrecovery/internal/wire"
)

// The end-to-end metrics every untraced run prints, with their units.
var endToEnd = map[string]string{
	"p50_ms":          "ms",
	"p99_ms":          "ms",
	"throughput_rps":  "1/s",
	"success_ratio":   "ratio",
	"repair_cost":     "cost",
	"satisfied_ratio": "ratio",
	"setup_s":         "s",
	"heap_live_mb":    "MB",
}

func TestBodyMatchesMarshal(t *testing.T) {
	rec, err := newRecipe()
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"ISP", "OPT"} {
		suffix, err := requestSuffix(alg)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 20; seed++ {
			s := rec.scenario(seed)
			want, err := json.Marshal(wire.PlanRequest{
				Scenario:  wire.FromScenario("", s),
				Algorithm: alg,
				Options:   wire.SolveOptions{Workers: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.body(s, suffix); !bytes.Equal(got, want) {
				t.Fatalf("%s seed %d: spliced body differs from json.Marshal\ngot  %s\nwant %s", alg, seed, got, want)
			}
		}
	}
}

// TestSmokeWorkloads runs every workload for a short window and checks
// that each end-to-end metric is printed by name with its unit. A window
// this short cannot support a p99, so that self-check (and only that
// one) may fire.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet per workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runHTTP(w, 7, 500*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range res.selfChecks {
				if !errors.Is(e, errShortWindow) {
					t.Errorf("self-check: %v", e)
				}
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("attempted %d, failed %d: %v", res.attempted, res.failed, res.failures)
			}
			var out bytes.Buffer
			if err := report(res, &out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if len(line.Metrics) != len(endToEnd) {
				t.Errorf("printed %d metrics, want %d", len(line.Metrics), len(endToEnd))
			}
			for name, unit := range endToEnd {
				m, ok := line.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("metric %s: got %+v, want unit %s", name, m, unit)
				}
				if !strings.Contains(out.String(), name) {
					t.Errorf("metric %s missing from the human-readable lines", name)
				}
				if m.Value <= 0 {
					t.Errorf("metric %s = %g, want > 0", name, m.Value)
				}
			}
		})
	}
}

// knownDefect is the grid scenario on which fast ISP stops at its
// iteration limit yet claims full satisfaction at cost 4; OPT adopts that
// plan through its ISP warm start, while exact ISP needs cost 9.
func knownDefect(t *testing.T) *scenario.Scenario {
	t.Helper()
	g, err := topology.Grid(5, 5, topology.DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	dg, err := demand.GenerateFarApartPairs(g, 2, 6, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	d := disruption.Random(g, 0.15, 0.25, rand.New(rand.NewSource(1000258)))
	return &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
}

func TestAnswerCheckKnownDefect(t *testing.T) {
	s := knownDefect(t)
	for _, c := range []struct {
		alg    string
		fast   bool
		wantOK bool
	}{
		{"ISP", true, false},
		{"OPT", false, false},
		{"ISP", false, true},
	} {
		solver, err := heuristics.New(c.alg, heuristics.Params{Fast: c.fast})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := solver.Solve(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		wp := wire.FromPlan(s, plan)
		cost, err := checkAnswer(s, c.alg, &wp)
		if c.wantOK && err != nil {
			t.Errorf("%s fast=%v: exact plan rejected: %v", c.alg, c.fast, err)
		}
		if !c.wantOK && err == nil {
			t.Errorf("%s fast=%v: unroutable plan at cost %g accepted", c.alg, c.fast, cost)
		}
		if vErr := scenario.VerifyPlan(s, plan); (vErr == nil) != c.wantOK {
			t.Errorf("%s fast=%v: VerifyPlan = %v", c.alg, c.fast, vErr)
		}
		t.Logf("%s fast=%v: cost %g, satisfied %g, check %v", c.alg, c.fast, wp.Cost, wp.SatisfiedRatio, err)
	}
}

func TestAnswerCheckRejectsTamperedPlans(t *testing.T) {
	s := knownDefect(t)
	solver, err := heuristics.New("ISP", heuristics.Params{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := solver.Solve(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	good := wire.FromPlan(s, plan)
	for name, tamper := range map[string]func(*wire.Plan){
		"fingerprint":   func(wp *wire.Plan) { wp.ScenarioFingerprint = strings.Repeat("0", 64) },
		"cost":          func(wp *wire.Plan) { wp.Cost++ },
		"intact repair": func(wp *wire.Plan) { wp.RepairedLinks = append(wp.RepairedLinks, firstIntactLink(s)) },
		"repeat":        func(wp *wire.Plan) { wp.RepairedLinks = append(wp.RepairedLinks, wp.RepairedLinks[0]) },
		"algorithm":     func(wp *wire.Plan) { wp.Algorithm = "SRT" },
	} {
		wp := good
		wp.RepairedLinks = slices.Clone(good.RepairedLinks)
		tamper(&wp)
		if _, err := checkAnswer(s, "ISP", &wp); err == nil {
			t.Errorf("%s: tampered plan accepted", name)
		}
	}
}

func firstIntactLink(s *scenario.Scenario) int {
	for e := 0; e < s.Supply.NumEdges(); e++ {
		if !s.BrokenEdges[graph.EdgeID(e)] {
			return e
		}
	}
	return -1
}

// TestTracedRepeats replays a shortened op sequence of every workload twice
// with one seed: the solver counts and every plan must repeat exactly.
func TestTracedRepeats(t *testing.T) {
	rec, err := newRecipe()
	if err != nil {
		t.Fatal(err)
	}
	short := map[string]int{"plan_hot": 200, "plan_cold": 12, "replan_session": 2, "plan_opt": 6}
	for _, w := range workloads {
		w.traceOps = short[w.name]
		var prev *tracedRun
		for i := 0; i < 2; i++ {
			run, err := replayWorkload(w, rec, 5)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			res := &result{}
			run.verify(res)
			if res.failed != 0 {
				t.Errorf("%s: %v", w.name, res.failures)
			}
			if prev != nil {
				if run.rp.counts != prev.rp.counts {
					t.Errorf("%s: counts differ: %+v vs %+v", w.name, run.rp.counts, prev.rp.counts)
				}
				if !slices.Equal(run.digests, prev.digests) {
					t.Errorf("%s: plan digests differ", w.name)
				}
			}
			prev = run
		}
		if len(prev.digests) == 0 {
			t.Errorf("%s: no plans replayed", w.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
