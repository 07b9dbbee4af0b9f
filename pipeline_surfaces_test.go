package netrecovery

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netrecovery/internal/server"
	"netrecovery/internal/wire"
)

// surfaceFailing switches surfaceFailSolver between failing and answering
// a valid empty plan (registration is global, so other tests enumerating
// the registry may solve with it).
var (
	surfaceFailing  atomic.Bool
	surfaceRegister sync.Once
)

type surfaceFailSolver struct{}

func (surfaceFailSolver) Name() string { return "surface-fail-test" }

func (surfaceFailSolver) Solve(context.Context, *Scenario) (*PlanSpec, error) {
	if surfaceFailing.Load() {
		return nil, errors.New("surface-fail-test: induced failure")
	}
	return &PlanSpec{}, nil
}

// TestDeadlineChainSameOnPlannerAndServer: the library Planner and the
// nrserved /v1/plan handler answer a deadline request through the same
// chain — with an always-failing primary both serve the fast-ISP fallback,
// with byte-identical plans and the same stage names, outcomes and
// attempts.
func TestDeadlineChainSameOnPlannerAndServer(t *testing.T) {
	surfaceRegister.Do(func() {
		RegisterSolver("surface-fail-test", func(SolverConfig) Solver { return surfaceFailSolver{} })
	})
	surfaceFailing.Store(true)
	defer surfaceFailing.Store(false)

	net, err := Grid(3, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddDemandByID(0, 8, 5); err != nil {
		t.Fatal(err)
	}
	net.ApplyRandomDisruption(0.5, 0.5, 7)
	sc := net.Snapshot()

	planner := NewPlanner(WithAlgorithm("surface-fail-test"), WithDeadline(5*time.Second))
	plan, err := planner.Plan(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	var facadeStages []wire.StageTiming
	for _, st := range plan.Degradation().Stages {
		facadeStages = append(facadeStages, wire.StageTiming{Stage: st.Stage, Outcome: st.Outcome, Attempts: st.Attempts, Error: st.Err})
	}

	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	body, err := json.Marshal(wire.PlanRequest{
		Scenario:  wire.FromScenario("surfaces", sc.inner),
		Algorithm: "surface-fail-test",
		Options:   wire.SolveOptions{DeadlineMS: 5000},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
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
	var served wire.PlanResponse
	if err := json.Unmarshal(raw, &served); err != nil {
		t.Fatal(err)
	}
	served.Plan.RuntimeMS = 0
	serverPlan, err := json.Marshal(served.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if facadePlan := wirePlanBytes(t, sc, plan); !bytes.Equal(facadePlan, serverPlan) {
		t.Fatalf("served plans differ:\nplanner %s\nserver  %s", facadePlan, serverPlan)
	}

	if served.Degradation == nil {
		t.Fatalf("server response has no degradation block: %s", raw)
	}
	var serverStages []wire.StageTiming
	for _, st := range served.Degradation.Stages {
		st.ElapsedMS = 0
		serverStages = append(serverStages, st)
	}
	if !reflect.DeepEqual(facadeStages, serverStages) {
		t.Fatalf("chain stages differ:\nplanner %+v\nserver  %+v", facadeStages, serverStages)
	}
	if deg := plan.Degradation(); deg.ServedBy != "fallback_isp" || served.Degradation.ServedBy != "fallback_isp" {
		t.Fatalf("served by planner %q / server %q, want fallback_isp on both", deg.ServedBy, served.Degradation.ServedBy)
	}
}
