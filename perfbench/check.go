package main

import (
	"fmt"
	"math"

	"netrecovery/internal/flow"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
	"netrecovery/internal/wire"
)

// fullRatio is the satisfied ratio from which a plan claims to carry the
// whole demand.
const fullRatio = 1 - 1e-9

// checkAnswer checks an answered plan against the scenario the request
// carried and returns the plan's repair cost recomputed from the scenario:
//
//   - the plan's fingerprint is the request scenario's;
//   - every repaired element is broken, and none is listed twice;
//   - the recomputed repair cost equals the plan's cost;
//   - a plan claiming full satisfaction leaves a repaired network on which
//     an exact routability test routes the whole demand.
func checkAnswer(s *scenario.Scenario, algorithm string, wp *wire.Plan) (float64, error) {
	if wp.Algorithm != algorithm {
		return 0, fmt.Errorf("plan solved by %q, requested %q", wp.Algorithm, algorithm)
	}
	if fp := s.FingerprintHex(); wp.ScenarioFingerprint != fp {
		return 0, fmt.Errorf("plan fingerprint %.12s…, request %.12s…", wp.ScenarioFingerprint, fp)
	}
	cost := 0.0
	excludedNodes := make(map[graph.NodeID]bool, len(s.BrokenNodes))
	for v, b := range s.BrokenNodes {
		excludedNodes[v] = b
	}
	excludedEdges := make(map[graph.EdgeID]bool, len(s.BrokenEdges))
	for e, b := range s.BrokenEdges {
		excludedEdges[e] = b
	}
	for _, id := range wp.RepairedNodes {
		v := graph.NodeID(id)
		if !excludedNodes[v] {
			return 0, fmt.Errorf("plan repairs node %d, which is not broken or is listed twice", id)
		}
		excludedNodes[v] = false
		cost += s.Supply.Node(v).RepairCost
	}
	for _, id := range wp.RepairedLinks {
		e := graph.EdgeID(id)
		if !excludedEdges[e] {
			return 0, fmt.Errorf("plan repairs link %d, which is not broken or is listed twice", id)
		}
		excludedEdges[e] = false
		cost += s.Supply.Edge(e).RepairCost
	}
	if math.Abs(cost-wp.Cost) > 1e-9*math.Max(1, cost) {
		return 0, fmt.Errorf("plan cost %g, recomputed %g", wp.Cost, cost)
	}
	if wp.SatisfiedRatio < 0 || wp.SatisfiedRatio > 1+1e-9 || math.IsNaN(wp.SatisfiedRatio) {
		return 0, fmt.Errorf("satisfied ratio %g outside [0, 1]", wp.SatisfiedRatio)
	}
	if wp.SatisfiedRatio >= fullRatio {
		in := &flow.Instance{
			Graph:         s.Supply,
			ExcludedNodes: excludedNodes,
			ExcludedEdges: excludedEdges,
			Demands:       s.Demand.Active(),
		}
		if !flow.CheckRoutability(in, flow.Options{Mode: flow.ModeExact}).Routable {
			return 0, fmt.Errorf("plan claims full satisfaction at cost %g, but the repaired network cannot route the demand", cost)
		}
	}
	return cost, nil
}
