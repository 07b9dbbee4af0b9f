package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
	"netrecovery/internal/wire"
)

// The population recipe shared by every workload: the Bell-Canada backbone,
// one fixed set of far-apart demand pairs, and independent random failures
// of nodes and links. Only the failures vary with the seed, so a workload's
// cost per operation does not hinge on one lucky or unlucky demand draw.
const (
	recipePairs = 4
	recipeFlow  = 10.0
	recipeNodeP = 0.15
	recipeLinkP = 0.25
	// recipeDemandSeed fixes the demand pairs of every workload.
	recipeDemandSeed = 12
	// demandBump is the extra flow a session's set_demand delta adds to
	// (and later removes from) one pair.
	demandBump = 1.0
)

// kind is the shape of a workload's timed operation.
type kind int

const (
	kindHot     kind = iota // POST /v1/plan over a prewarmed population
	kindCold                // POST /v1/plan on a never-seen scenario
	kindSession             // POST /v1/session/{id}/delta
)

// workload is one named traffic mix of the benchmark.
type workload struct {
	name      string
	tag       int // selects the workload's own seed range
	algorithm string
	kind      kind
	// warmOps is the number of operations of the timed kind each client
	// issues, untimed, before the timed window.
	warmOps int
	// traceOps is the number of operations the traced replay runs
	// (session lifecycles for kindSession).
	traceOps int
}

var workloads = []workload{
	{name: "plan_hot", tag: 1, algorithm: "ISP", kind: kindHot, warmOps: 200, traceOps: 4000},
	{name: "plan_cold", tag: 2, algorithm: "ISP", kind: kindCold, warmOps: 48, traceOps: 400},
	{name: "replan_session", tag: 3, algorithm: "ISP", kind: kindSession, warmOps: 30, traceOps: 24},
	{name: "plan_opt", tag: 4, algorithm: "OPT", kind: kindCold, warmOps: 24, traceOps: 120},
}

// hot population shape: hotScenarios keys drawn Zipf(hotZipfS).
const (
	hotScenarios = 64
	hotZipfS     = 1.2
)

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Scenario purposes. Each workload draws its scenarios from a seed range of
// its own: scenario u of a purpose is seeded by tag·10⁸ + purpose·10⁷ + u,
// never by --seed. The seed orders that universe instead: it shuffles each
// client's share within blocks of orderBlock and seeds the plan_hot key
// streams. A run thus covers nearly the same scenarios whatever its seed,
// and the spread between seeds measures the program and the machine rather
// than which failures happened to be drawn.
const (
	purposePopulation = iota + 1
	purposeWarm
	purposeTimed
)

// orderBlock is the span within which --seed shuffles a client's
// sequence.
const orderBlock = 16

// scenarioSeed seeds the failures of universe scenario u.
func scenarioSeed(w workload, purpose, u int) int64 {
	return int64(w.tag)*1e8 + int64(purpose)*1e7 + int64(u)
}

// clientRand is the random stream --seed gives one client.
func clientRand(w workload, seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed<<8 | int64(w.tag)<<4 | int64(client)))
}

// sequence yields one client's universe indices: the client's share is
// every clients-th index, shuffled within blocks when rng is set.
type sequence struct {
	client int
	rng    *rand.Rand
	perm   []int
	k      int
}

func (s *sequence) next() int {
	k := s.k
	s.k++
	if s.rng != nil {
		if k%orderBlock == 0 {
			s.perm = s.rng.Perm(orderBlock)
		}
		k += s.perm[k%orderBlock] - k%orderBlock
	}
	return k*clients + s.client
}

// recipe renders scenarios and request bodies. Bodies are spliced from a
// pre-encoded topology prefix, so rendering one costs a few microseconds and
// can happen between timed requests without loading the box; they are
// byte-equal to json.Marshal of the wire request (pinned by a test).
type recipe struct {
	g      *graph.Graph
	dg     *demand.Graph
	prefix []byte // `{"scenario":{"nodes":…,"demands":[…]` without the closing brace
}

func newRecipe() (*recipe, error) {
	g := topology.BellCanada()
	dg, err := demand.GenerateFarApartPairs(g, recipePairs, recipeFlow, rand.New(rand.NewSource(recipeDemandSeed)))
	if err != nil {
		return nil, err
	}
	enc, err := json.Marshal(wire.FromScenario("", &scenario.Scenario{Supply: g, Demand: dg}))
	if err != nil {
		return nil, err
	}
	prefix := append([]byte(`{"scenario":`), enc[:len(enc)-1]...)
	return &recipe{g: g, dg: dg, prefix: prefix}, nil
}

// scenario draws the failures of one scenario from seed.
func (r *recipe) scenario(seed int64) *scenario.Scenario {
	d := disruption.Random(r.g, recipeNodeP, recipeLinkP, rand.New(rand.NewSource(seed)))
	return &scenario.Scenario{Supply: r.g, Demand: r.dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
}

// requestSuffix encodes the request fields after the scenario: the
// algorithm and one solver worker per request, so two clients fill the two
// cores without the solves oversubscribing them.
func requestSuffix(algorithm string) ([]byte, error) {
	enc, err := json.Marshal(struct {
		Algorithm string            `json:"algorithm,omitempty"`
		Options   wire.SolveOptions `json:"options,omitempty"`
	}{algorithm, wire.SolveOptions{Workers: 1}})
	if err != nil {
		return nil, err
	}
	enc[0] = ','
	return enc, nil
}

// body renders the plan (or session-create) request of s.
func (r *recipe) body(s *scenario.Scenario, suffix []byte) []byte {
	b := make([]byte, 0, len(r.prefix)+len(suffix)+256)
	b = append(b, r.prefix...)
	if nodes := s.SortedBrokenNodes(); len(nodes) > 0 {
		b = append(b, `,"broken_nodes":[`...)
		for i, v := range nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	if links := s.SortedBrokenEdges(); len(links) > 0 {
		b = append(b, `,"broken_links":[`...)
		for i, e := range links {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(e), 10)
		}
		b = append(b, ']')
	}
	b = append(b, '}')
	return append(b, suffix...)
}

// sessionScript is one session lifecycle: the broken links are repaired in
// ascending ID order, and before every fourth repair one pair's demand is
// bumped (alternately up by demandBump and back down), one delta per
// request.
func (r *recipe) sessionScript(s *scenario.Scenario) []scenario.Delta {
	links := s.SortedBrokenEdges()
	pairs := r.dg.All()
	var steps []scenario.Delta
	bumps := 0
	for i, e := range links {
		if i%4 == 3 {
			p := pairs[bumps%len(pairs)]
			flow := p.Flow
			if (bumps/len(pairs))%2 == 0 {
				flow += demandBump
			}
			steps = append(steps, scenario.Delta{Kind: scenario.DeltaSetDemand, Pair: p.ID, Flow: flow})
			bumps++
		}
		steps = append(steps, scenario.Delta{Kind: scenario.DeltaRepairLink, Edge: e})
	}
	return steps
}

// deltaBody renders the request of one session step.
func deltaBody(d scenario.Delta) ([]byte, error) {
	return json.Marshal(wire.DeltaRequest{Deltas: []wire.Delta{wire.FromDelta(d)}})
}
