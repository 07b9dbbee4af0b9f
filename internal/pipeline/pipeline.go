// Package pipeline is the one path from a plan request to a served plan,
// shared by every surface that answers one: the library Planner, the
// nrserved /v1/plan handler, the nrecover CLI, ensemble solves and the
// nrbench serving rows. It owns what those surfaces must agree on: the
// plan-cache key, the cached solve (peer fill inside the coalescing
// leader, a direct solve when a cache shard fails) and its cache status,
// and the deadline-budgeted degrade chain that serves the paper's OPT/ISP
// trade-off: the requested solver, then fast ISP, then a stale cached plan.
package pipeline

import (
	"context"
	"errors"
	"time"

	"netrecovery/internal/degrade"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
)

// Cache statuses reported in Result.Status (the wire cache.status values).
const (
	StatusMiss      = "miss"      // this request solved and stored the plan
	StatusHit       = "hit"       // served from the cache
	StatusCoalesced = "coalesced" // shared a concurrent identical solve
	StatusBypass    = "bypass"    // solved without the cache
	StatusStale     = "stale"     // an expired entry served by the chain
	StatusPeer      = "peer"      // filled from the owning peer's cache
)

// primaryFraction is the slice of the deadline granted to the requested
// solver when a cheaper fallback stage exists behind it; the fallback gets
// whatever the primary leaves.
const primaryFraction = 0.6

// Pipeline holds what differs between the surfaces. The zero value solves
// directly: no cache, no peer fill, one attempt.
type Pipeline struct {
	// Cache is the plan cache; nil solves every request directly.
	Cache *plancache.Cache
	// Fill, when non-nil, is asked for a miss's plan inside the coalescing
	// leader before the local solve (multi-node peer fill), so concurrent
	// identical requests trigger at most one fill; ok=false solves locally.
	Fill func(ctx context.Context, key plancache.Key) (plan *scenario.Plan, ok bool)
	// Solve runs one solve attempt; nil calls solver.Solve.
	Solve func(ctx context.Context, alg string, solver heuristics.Solver, s *scenario.Scenario) (*scenario.Plan, error)
	// Blocked, when non-nil, reports an algorithm whose circuit breaker
	// refuses solves; the chain skips its stage instead of spending budget.
	Blocked func(alg string) bool
	// Retry retries transient solve failures: inside the coalescing leader
	// without a deadline, per chain stage (where attempts are counted) with
	// one.
	Retry degrade.RetryPolicy
	// Now is the chain's clock; nil means time.Now.
	Now func() time.Time
}

// Request is one plan request.
type Request struct {
	Scenario *scenario.Scenario
	// Fingerprint is Scenario.Fingerprint() when the caller already holds
	// it; when zero it is computed if the cache needs it.
	Fingerprint [32]byte
	Algorithm   string
	Params      heuristics.Params
	// Solver is the registry solver built from Algorithm and Params.
	Solver heuristics.Solver
	// NoCache solves without reading or writing the cache.
	NoCache bool
	// Deadline, when positive, answers through the degrade chain under this
	// overall budget.
	Deadline time.Duration
}

// Result is a served plan and how it was obtained.
type Result struct {
	Plan *scenario.Plan
	// Status is a Status* constant; Age is the time the plan spent in the
	// cache (hits and stale plans).
	Status string
	Age    time.Duration
	// Chain records the degrade chain when the request had a deadline.
	Chain *degrade.Result
}

// Plan answers one request: one cached solve without a deadline, the
// degrade chain with one. An exhausted chain returns an error wrapping
// degrade.ErrExhausted alongside a Result holding only the chain record.
func (p *Pipeline) Plan(ctx context.Context, req Request) (*Result, error) {
	if req.Deadline > 0 {
		return p.chain(ctx, &req)
	}
	solve := func(ctx context.Context) (plan *scenario.Plan, err error) {
		_, err = p.Retry.Retry(ctx, func() (serr error) {
			plan, serr = p.solveOnce(ctx, &req, req.Algorithm, req.Solver)
			return serr
		})
		return plan, err
	}
	plan, status, age, err := p.cached(ctx, &req, req.Algorithm, req.Params, solve)
	if err != nil {
		return nil, err
	}
	return &Result{Plan: plan, Status: status, Age: age}, nil
}

// key derives the cache key of the request's scenario solved by alg with
// params, computing the fingerprint at most once per request.
func key(req *Request, alg string, params heuristics.Params) plancache.Key {
	if req.Fingerprint == ([32]byte{}) {
		req.Fingerprint = req.Scenario.Fingerprint()
	}
	return plancache.Key{Fingerprint: req.Fingerprint, Algorithm: alg, Options: plancache.ParamsDigest(params)}
}

// solveOnce runs one solve attempt through the surface's solve wrapper.
func (p *Pipeline) solveOnce(ctx context.Context, req *Request, alg string, solver heuristics.Solver) (*scenario.Plan, error) {
	if p.Solve != nil {
		return p.Solve(ctx, alg, solver, req.Scenario)
	}
	return solver.Solve(ctx, req.Scenario)
}

// cached runs solve through the cache, peer-filling first inside the
// coalescing leader. It solves directly when the request bypasses the
// cache or the cache shard is unavailable (the solver is fine, so the
// request still gets an answer).
func (p *Pipeline) cached(ctx context.Context, req *Request, alg string, params heuristics.Params, solve func(context.Context) (*scenario.Plan, error)) (*scenario.Plan, string, time.Duration, error) {
	if p.Cache == nil || req.NoCache {
		plan, err := solve(ctx)
		return plan, StatusBypass, 0, err
	}
	k := key(req, alg, params)
	leader, peerFilled := solve, false
	if p.Fill != nil {
		leader = func(ctx context.Context) (*scenario.Plan, error) {
			if plan, ok := p.Fill(ctx, k); ok {
				peerFilled = true
				return plan, nil
			}
			return solve(ctx)
		}
	}
	plan, outcome, age, err := p.Cache.Do(ctx, k, leader)
	var unavailable *plancache.UnavailableError
	switch {
	case errors.As(err, &unavailable):
		plan, err = solve(ctx)
		return plan, StatusBypass, 0, err
	case err != nil:
		return nil, "", 0, err
	case peerFilled && outcome == plancache.Miss:
		return plan, StatusPeer, age, nil
	}
	return plan, outcome.String(), age, nil
}

// chain runs the degrade chain: the requested solver, then fast ISP — the
// paper's polynomial heuristic in greedy split mode, the cheapest solver
// that still optimises — unless the request already asks for exactly that,
// then the free stale-cache lookup.
func (p *Pipeline) chain(ctx context.Context, req *Request) (*Result, error) {
	res := &Result{}
	solverStage := func(name string, level degrade.Level, alg string, params heuristics.Params, solver heuristics.Solver) degrade.Stage {
		st := degrade.Stage{Name: name, Level: level, Retry: true, Run: func(ctx context.Context) (*scenario.Plan, error) {
			plan, status, age, err := p.cached(ctx, req, alg, params, func(ctx context.Context) (*scenario.Plan, error) {
				return p.solveOnce(ctx, req, alg, solver)
			})
			if err == nil {
				res.Status, res.Age = status, age
			}
			return plan, err
		}}
		if p.Blocked != nil {
			st.Skip = func() string {
				if p.Blocked(alg) {
					return "circuit breaker open for " + alg
				}
				return ""
			}
		}
		return st
	}
	stages := []degrade.Stage{solverStage("primary", degrade.LevelNone, req.Algorithm, req.Params, req.Solver)}
	fallbackParams := heuristics.Params{Fast: true, OPTWorkers: req.Params.OPTWorkers, OnStats: req.Params.OnStats}
	haveFallback := !(req.Algorithm == "ISP" && req.Params.Fast)
	if haveFallback {
		fallback, err := heuristics.New("ISP", fallbackParams)
		if err != nil {
			return nil, err
		}
		stages[0].Fraction = primaryFraction
		stages = append(stages, solverStage("fallback_isp", degrade.LevelFallback, "ISP", fallbackParams, fallback))
	}
	stages = append(stages, degrade.Stage{
		Name:  "stale_cache",
		Level: degrade.LevelStale,
		Free:  true,
		Skip: func() string {
			switch {
			case p.Cache == nil:
				return "no cache configured"
			case req.NoCache:
				return "cache disabled by request"
			}
			return ""
		},
		Run: func(context.Context) (*scenario.Plan, error) {
			keys := []plancache.Key{key(req, req.Algorithm, req.Params)}
			if haveFallback {
				keys = append(keys, key(req, "ISP", fallbackParams))
			}
			for _, k := range keys {
				if plan, age, _, ok := p.Cache.GetStale(k); ok {
					res.Status, res.Age = StatusStale, age
					return plan, nil
				}
			}
			return nil, nil
		},
	})
	chain, err := degrade.Execute(ctx, stages, degrade.Options{Deadline: req.Deadline, Retry: p.Retry, Now: p.Now})
	if chain == nil {
		return nil, err
	}
	res.Plan, res.Chain = chain.Plan, chain
	return res, err
}
