// Package wire defines the JSON wire schema shared by the HTTP daemon
// (cmd/nrserved via internal/server) and the CLI (cmd/nrecover -json): the
// serialised forms of a Scenario, a recovery Plan and the server's
// request/response envelopes. Both consumers encode through this one
// package, so the CLI output and the server response can never drift apart.
//
// Every ID slice in the schema is emitted in ascending order and every list
// in a canonical order, so encoding the same scenario or plan twice yields
// byte-identical JSON — the property the plan cache's byte-identical
// cache-hit guarantee and the golden tests rely on.
package wire

import (
	"fmt"
	"math"
	"sort"
	"time"

	"netrecovery/internal/degrade"
	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
	"netrecovery/internal/progressive"
	"netrecovery/internal/scenario"
)

// Node is the wire form of a supply-graph node. The field names match the
// topology JSON format of cmd/topogen.
type Node struct {
	Name       string  `json:"name,omitempty"`
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
	RepairCost float64 `json:"repairCost"`
}

// Link is the wire form of a supply-graph edge; From and To are node indices
// in the Nodes array.
type Link struct {
	From       int     `json:"from"`
	To         int     `json:"to"`
	Capacity   float64 `json:"capacity"`
	RepairCost float64 `json:"repairCost"`
}

// Demand is one required flow between two node indices.
type Demand struct {
	Source int     `json:"source"`
	Target int     `json:"target"`
	Flow   float64 `json:"flow"`
}

// Scenario is the wire form of a full MinR instance: topology, demand set
// and disruption state. It is the request body of the server's /v1/plan.
type Scenario struct {
	Name    string   `json:"name,omitempty"`
	Nodes   []Node   `json:"nodes"`
	Links   []Link   `json:"links"`
	Demands []Demand `json:"demands,omitempty"`
	// BrokenNodes and BrokenLinks are element IDs, always emitted sorted
	// ascending.
	BrokenNodes []int `json:"broken_nodes,omitempty"`
	BrokenLinks []int `json:"broken_links,omitempty"`
}

// FromScenario converts an internal scenario into its wire form. ID lists
// are sorted, so the encoding is deterministic.
func FromScenario(name string, s *scenario.Scenario) Scenario {
	ws := Scenario{
		Name:  name,
		Nodes: make([]Node, 0, s.Supply.NumNodes()),
		Links: make([]Link, 0, s.Supply.NumEdges()),
	}
	for _, n := range s.Supply.Nodes() {
		ws.Nodes = append(ws.Nodes, Node{Name: n.Name, X: n.X, Y: n.Y, RepairCost: n.RepairCost})
	}
	for _, e := range s.Supply.Edges() {
		ws.Links = append(ws.Links, Link{From: int(e.From), To: int(e.To), Capacity: e.Capacity, RepairCost: e.RepairCost})
	}
	for _, p := range s.Demand.All() {
		ws.Demands = append(ws.Demands, Demand{Source: int(p.Source), Target: int(p.Target), Flow: p.Flow})
	}
	for _, v := range s.SortedBrokenNodes() {
		ws.BrokenNodes = append(ws.BrokenNodes, int(v))
	}
	for _, e := range s.SortedBrokenEdges() {
		ws.BrokenLinks = append(ws.BrokenLinks, int(e))
	}
	return ws
}

// Build converts the wire scenario back into a validated internal scenario.
func (ws Scenario) Build() (*scenario.Scenario, error) {
	g := graph.New(len(ws.Nodes), len(ws.Links))
	for _, n := range ws.Nodes {
		g.AddNode(n.Name, n.X, n.Y, n.RepairCost)
	}
	for i, l := range ws.Links {
		if _, err := g.AddEdge(graph.NodeID(l.From), graph.NodeID(l.To), l.Capacity, l.RepairCost); err != nil {
			return nil, fmt.Errorf("wire: link %d: %w", i, err)
		}
	}
	dg := demand.New()
	for i, d := range ws.Demands {
		if _, err := dg.Add(graph.NodeID(d.Source), graph.NodeID(d.Target), d.Flow); err != nil {
			return nil, fmt.Errorf("wire: demand %d: %w", i, err)
		}
	}
	s := &scenario.Scenario{
		Supply:      g,
		Demand:      dg,
		BrokenNodes: make(map[graph.NodeID]bool, len(ws.BrokenNodes)),
		BrokenEdges: make(map[graph.EdgeID]bool, len(ws.BrokenLinks)),
	}
	for _, v := range ws.BrokenNodes {
		s.BrokenNodes[graph.NodeID(v)] = true
	}
	for _, e := range ws.BrokenLinks {
		s.BrokenEdges[graph.EdgeID(e)] = true
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Stage is one step of a progressive recovery timeline.
type Stage struct {
	Index          int     `json:"index"`
	RepairedNodes  []int   `json:"repaired_nodes,omitempty"`
	RepairedLinks  []int   `json:"repaired_links,omitempty"`
	Cost           float64 `json:"cost"`
	SatisfiedRatio float64 `json:"satisfied_ratio"`
}

// Plan is the wire form of a recovery plan — the one plan schema emitted by
// both the server's /v1/plan and `nrecover -json`.
type Plan struct {
	Algorithm string `json:"algorithm"`
	// ScenarioFingerprint is the content hash (scenario.FingerprintHex) of
	// the scenario the plan solves.
	ScenarioFingerprint string `json:"scenario_fingerprint"`
	// RepairedNodes and RepairedLinks are element IDs, sorted ascending.
	RepairedNodes []int `json:"repaired_nodes"`
	RepairedLinks []int `json:"repaired_links"`
	NodeRepairs   int   `json:"node_repairs"`
	LinkRepairs   int   `json:"link_repairs"`
	TotalRepairs  int   `json:"total_repairs"`
	// Cost is the total repair cost of the plan on its scenario.
	Cost            float64 `json:"cost"`
	SatisfiedDemand float64 `json:"satisfied_demand"`
	TotalDemand     float64 `json:"total_demand"`
	SatisfiedRatio  float64 `json:"satisfied_ratio"`
	Optimal         bool    `json:"optimal,omitempty"`
	Bound           float64 `json:"bound,omitempty"`
	RuntimeMS       float64 `json:"runtime_ms"`
	Notes           string  `json:"notes,omitempty"`
	// Stages is the progressive recovery timeline, present only when a stage
	// budget was requested.
	Stages []Stage `json:"stages,omitempty"`
}

// FromPlan converts an internal plan (solved on s) into its wire form.
func FromPlan(s *scenario.Scenario, p *scenario.Plan) Plan {
	wp := Plan{
		Algorithm:           p.Solver,
		ScenarioFingerprint: s.FingerprintHex(),
		RepairedNodes:       []int{},
		RepairedLinks:       []int{},
		Cost:                p.RepairCost(s),
		SatisfiedDemand:     p.SatisfiedDemand,
		TotalDemand:         p.TotalDemand,
		SatisfiedRatio:      p.SatisfactionRatio(),
		Optimal:             p.Optimal,
		Bound:               finiteOrZero(p.Bound),
		RuntimeMS:           float64(p.Runtime) / float64(time.Millisecond),
		Notes:               p.Notes,
	}
	for v, repaired := range p.RepairedNodes {
		if repaired {
			wp.RepairedNodes = append(wp.RepairedNodes, int(v))
		}
	}
	for e, repaired := range p.RepairedEdges {
		if repaired {
			wp.RepairedLinks = append(wp.RepairedLinks, int(e))
		}
	}
	sort.Ints(wp.RepairedNodes)
	sort.Ints(wp.RepairedLinks)
	wp.NodeRepairs, wp.LinkRepairs, wp.TotalRepairs = p.NumRepairs()
	return wp
}

// WithStages computes the progressive timeline for the plan under the given
// per-stage budget and attaches it. Stage element IDs keep the scheduler's
// repair order within a stage (the order repairs are performed), which is
// itself deterministic.
func (wp Plan) WithStages(s *scenario.Scenario, p *scenario.Plan, stageBudget float64) (Plan, error) {
	sched, err := progressive.Build(s, p, progressive.Options{StageBudget: stageBudget})
	if err != nil {
		return wp, err
	}
	wp.Stages = make([]Stage, 0, len(sched.Stages))
	for _, stage := range sched.Stages {
		st := Stage{Index: stage.Index, Cost: stage.Cost, SatisfiedRatio: stage.SatisfiedRatio}
		for _, el := range stage.Repairs {
			if el.IsNode() {
				st.RepairedNodes = append(st.RepairedNodes, int(el.Node))
			} else {
				st.RepairedLinks = append(st.RepairedLinks, int(el.Edge))
			}
		}
		wp.Stages = append(wp.Stages, st)
	}
	return wp, nil
}

// finiteOrZero maps the solvers' +-Inf sentinels (e.g. an OPT bound before
// any relaxation solved) to 0, which JSON can carry.
func finiteOrZero(f float64) float64 {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return 0
	}
	return f
}

// PlanRequest is the request body of POST /v1/plan and GET /v1/plan/stream.
type PlanRequest struct {
	Scenario Scenario `json:"scenario"`
	// Algorithm is a solver-registry name (default ISP).
	Algorithm string       `json:"algorithm,omitempty"`
	Options   SolveOptions `json:"options,omitempty"`
}

// SolveOptions carries the per-request solver knobs.
type SolveOptions struct {
	// Fast switches ISP to its greedy split mode.
	Fast bool `json:"fast,omitempty"`
	// OptTimeLimitMS / OptMaxNodes bound OPT's branch-and-bound search.
	OptTimeLimitMS int64 `json:"opt_time_limit_ms,omitempty"`
	OptMaxNodes    int   `json:"opt_max_nodes,omitempty"`
	// Workers is the in-solve parallelism (0 = server default). Plans are
	// identical for every value; it is not part of the cache key.
	Workers int `json:"workers,omitempty"`
	// StageBudget, when positive, additionally computes a progressive
	// recovery timeline with this per-stage repair budget.
	StageBudget float64 `json:"stage_budget,omitempty"`
	// NoCache bypasses the plan cache for this request (always solves, does
	// not store).
	NoCache bool `json:"no_cache,omitempty"`
	// DeadlineMS, when positive, runs the request through the server's
	// deadline-budgeted degradation chain: the requested solver gets a
	// slice of this budget, then a fast-ISP fallback, then a
	// stale-but-served cache entry. The response's degradation block
	// reports which stage answered.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// NoDegrade disables the fallback chain even when the server has a
	// default degradation deadline configured: the request either gets the
	// exact answer it asked for or an error.
	NoDegrade bool `json:"no_degrade,omitempty"`
	// Timing asks the server to attach the request's span breakdown (see
	// Timing) to the response. Answer-invariant: not part of the cache
	// key, and a no-op on servers running with tracing disabled.
	Timing bool `json:"timing,omitempty"`
}

// CacheInfo reports how the server obtained the plan.
type CacheInfo struct {
	// Status is "miss", "hit", "coalesced" or "bypass".
	Status string `json:"status"`
	// Fingerprint is the scenario content hash the cache keyed on.
	Fingerprint string `json:"fingerprint"`
	// AgeMS is the cached plan's age (hits only).
	AgeMS int64 `json:"age_ms"`
}

// StageTiming reports one degradation-chain stage's outcome. The encoding
// is deterministic: field order is fixed and durations are integral
// milliseconds.
type StageTiming struct {
	// Stage names the chain rung: "primary", "fallback_isp", "stale_cache".
	Stage string `json:"stage"`
	// Outcome is "served", "timeout", "error", "skipped" or "unavailable".
	Outcome string `json:"outcome"`
	// Attempts counts solve attempts (>1 when transient faults were
	// retried); 0 for stages that never ran.
	Attempts int `json:"attempts,omitempty"`
	// ElapsedMS is the stage's wall time.
	ElapsedMS int64 `json:"elapsed_ms"`
	// Error is the stage's failure (or skip reason), empty when served.
	Error string `json:"error,omitempty"`
}

// Degradation annotates a response served through the fallback chain.
type Degradation struct {
	// Level is "none" (primary stage answered), "fallback" (a cheaper
	// solver answered) or "stale" (an expired cache entry was served).
	Level string `json:"level"`
	// ServedBy is the stage that produced the plan.
	ServedBy string `json:"served_by"`
	// DeadlineMS is the overall budget the chain ran under.
	DeadlineMS int64 `json:"deadline_ms"`
	// Retries counts transient-fault retries across all stages.
	Retries int `json:"retries,omitempty"`
	// Stages lists every chain rung in execution order.
	Stages []StageTiming `json:"stages"`
}

// FromDegradation converts a degrade chain's record, run under the given
// overall deadline, into its annotation; nil when no chain ran.
func FromDegradation(res *degrade.Result, deadline time.Duration) *Degradation {
	if res == nil {
		return nil
	}
	d := &Degradation{
		Level:      res.Level.String(),
		ServedBy:   res.ServedBy,
		DeadlineMS: deadline.Milliseconds(),
		Retries:    res.Retries,
	}
	for _, st := range res.Stages {
		ts := StageTiming{
			Stage:     st.Name,
			Outcome:   st.Outcome,
			Attempts:  st.Attempts,
			ElapsedMS: st.Elapsed.Milliseconds(),
		}
		if st.Err != nil {
			ts.Error = st.Err.Error()
		}
		d.Stages = append(d.Stages, ts)
	}
	return d
}

// TimingSpan is one finished span of the request's trace, surfaced in the
// response when SolveOptions.Timing is set. Attrs is rendered as a JSON
// object (encoding/json sorts the keys, keeping the encoding stable).
type TimingSpan struct {
	// Name is the span's operation name (e.g. "admission.wait",
	// "cache.lookup", "peer.fill", "stage.primary", "solve").
	Name string `json:"name"`
	// StartUS/DurationUS place the span relative to the trace root start,
	// in microseconds.
	StartUS    int64             `json:"start_us"`
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Error      string            `json:"error,omitempty"`
}

// Timing is the opt-in per-request latency breakdown: the finished spans
// of the request's trace at response-build time (the root span is still
// open and therefore absent). TraceID links the response to the server's
// /debug/traces store.
type Timing struct {
	TraceID string       `json:"trace_id"`
	Spans   []TimingSpan `json:"spans"`
}

// PlanResponse is the response body of POST /v1/plan.
type PlanResponse struct {
	Plan  Plan      `json:"plan"`
	Cache CacheInfo `json:"cache"`
	// Degradation is present only when the request ran through the
	// deadline-budgeted fallback chain.
	Degradation *Degradation `json:"degradation,omitempty"`
	// Timing is present only when the request asked for it
	// (options.timing) and the server has tracing enabled.
	Timing *Timing `json:"timing,omitempty"`
}

// Delta kind names, the wire values of Delta.Kind.
const (
	DeltaBreakNode  = "break_node"
	DeltaRepairNode = "repair_node"
	DeltaBreakLink  = "break_link"
	DeltaRepairLink = "repair_link"
	DeltaSetDemand  = "set_demand"
)

// Delta is the wire form of one incremental scenario change. Kind selects
// which target field is read: node for break_node/repair_node, link for
// break_link/repair_link, pair and flow for set_demand. Deltas never change
// the topology (nodes, links, capacities, repair costs); they only move
// elements between the working and broken sets and adjust demand flows.
type Delta struct {
	Kind string  `json:"kind"`
	Node int     `json:"node,omitempty"`
	Link int     `json:"link,omitempty"`
	Pair int     `json:"pair,omitempty"`
	Flow float64 `json:"flow,omitempty"`
}

// Build converts the wire delta into its internal form.
func (d Delta) Build() (scenario.Delta, error) {
	switch d.Kind {
	case DeltaBreakNode:
		return scenario.Delta{Kind: scenario.DeltaBreakNode, Node: graph.NodeID(d.Node)}, nil
	case DeltaRepairNode:
		return scenario.Delta{Kind: scenario.DeltaRepairNode, Node: graph.NodeID(d.Node)}, nil
	case DeltaBreakLink:
		return scenario.Delta{Kind: scenario.DeltaBreakLink, Edge: graph.EdgeID(d.Link)}, nil
	case DeltaRepairLink:
		return scenario.Delta{Kind: scenario.DeltaRepairLink, Edge: graph.EdgeID(d.Link)}, nil
	case DeltaSetDemand:
		return scenario.Delta{Kind: scenario.DeltaSetDemand, Pair: demand.PairID(d.Pair), Flow: d.Flow}, nil
	default:
		return scenario.Delta{}, fmt.Errorf("wire: unknown delta kind %q", d.Kind)
	}
}

// FromDelta converts an internal delta into its wire form.
func FromDelta(d scenario.Delta) Delta {
	w := Delta{Kind: d.Kind.String()}
	switch d.Kind {
	case scenario.DeltaBreakNode, scenario.DeltaRepairNode:
		w.Node = int(d.Node)
	case scenario.DeltaBreakLink, scenario.DeltaRepairLink:
		w.Link = int(d.Edge)
	case scenario.DeltaSetDemand:
		w.Pair = int(d.Pair)
		w.Flow = d.Flow
	}
	return w
}

// SessionRequest is the request body of POST /v1/session: the initial
// scenario of an evolving recovery run plus the solver configuration, which
// is fixed for the session's lifetime.
type SessionRequest struct {
	Scenario  Scenario     `json:"scenario"`
	Algorithm string       `json:"algorithm,omitempty"`
	Options   SolveOptions `json:"options,omitempty"`
}

// SessionInfo describes an open planning session.
type SessionInfo struct {
	ID        string `json:"id"`
	Algorithm string `json:"algorithm"`
	// Fingerprint is the content hash of the session's current scenario.
	Fingerprint string `json:"fingerprint"`
	// Warm reports whether re-plans run the warm incremental path (true for
	// ISP) or solve cold each time.
	Warm bool `json:"warm"`
	// Plans and Deltas count completed re-plans and applied deltas.
	Plans  int `json:"plans"`
	Deltas int `json:"deltas"`
	// IdleTTLMS is the inactivity timeout after which the server evicts the
	// session.
	IdleTTLMS int64 `json:"idle_ttl_ms"`
}

// SessionResponse is the response body of POST /v1/session and
// GET /v1/session/{id}.
type SessionResponse struct {
	Session SessionInfo `json:"session"`
	Plan    Plan        `json:"plan"`
}

// DeltaRequest is the request body of POST /v1/session/{id}/delta: a batch
// of deltas applied atomically before one re-plan.
type DeltaRequest struct {
	Deltas []Delta `json:"deltas"`
}

// DeltaResponse is the response body of POST /v1/session/{id}/delta.
type DeltaResponse struct {
	Session SessionInfo `json:"session"`
	Plan    Plan        `json:"plan"`
	// ReplanMS is the wall-clock time of this re-plan.
	ReplanMS float64 `json:"replan_ms"`
}

// Error is the JSON error envelope of every non-2xx server response.
type Error struct {
	Error string `json:"error"`
}
