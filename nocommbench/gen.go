package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Every request body is a pure function of (seed, stream, index): a seed
// reproduces a run's inputs byte for byte however the closed-loop
// clients interleave, and the streams keep the traced ladder's fresh
// keys disjoint from the measured window's.
const (
	streamOps    uint64 = 1 // closed-loop ops: warmup and measured window
	streamLadder uint64 = 2 // traced ladder ops
	streamPool   uint64 = 3 // hot-eval's key pool
	streamCheck  uint64 = 4 // once-per-run oracle instances
	streamPrim   uint64 = 5 // per-layer primitive inputs
)

// The n=3, δ=1 pins: the optimal symmetric threshold β* and its winning
// probability P*.
const (
	betaStar = 0.6220355269907728
	pStar    = 0.5446311396758939
)

// Request shapes, fixed by the workload definitions.
const (
	coldN         = 13
	optN          = 6
	sweepN        = 10
	sweepPoints   = 256
	sweepChunk    = 64
	mcN           = 10
	mcTrials      = 200_000
	hotPoolSize   = 1000
	hotZipfS      = 1.1
	hotZipfLength = 1 << 20
	coldSeeds     = 32 // entries set-up seeds the disk tier with
	mcSeeds       = 2  // ops set-up seeds the memory tier with
)

// corpusSeed draws the set-up corpora of cold-exact and mc-sample, which
// do not depend on the run's seed.
const corpusSeed = 0

func rngFor(seed, stream, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed*0x9e3779b97f4a7c15^stream, i))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

// uniform draws from [lo, hi).
func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

func piVector(r *rand.Rand, n int) []float64 {
	pi := make([]float64, n)
	for k := range pi {
		pi[k] = uniform(r, 0.5, 1)
	}
	return pi
}

// hotPoolRequest is entry j of hot-eval's key pool: a homogeneous exact
// symmetric threshold or oblivious request, n=3-8. Entry 0, the hottest
// Zipf rank, is the n=3 δ=1 β* request.
func hotPoolRequest(seed uint64, j int) serve.EvalRequest {
	if j == 0 {
		return serve.EvalRequest{N: 3, Delta: 1, Kind: "threshold", Param: betaStar, Backend: "exact"}
	}
	return hotRequest(seed, streamPool, uint64(j))
}

// hotRequest draws a homogeneous exact symmetric threshold or oblivious
// request, n=3-8.
func hotRequest(seed, stream, i uint64) serve.EvalRequest {
	r := rngFor(seed, stream, i)
	n := 3 + r.IntN(6)
	kind := "threshold"
	if r.IntN(2) == 1 {
		kind = "oblivious"
	}
	return serve.EvalRequest{N: n, Delta: uniform(r, 0.5, float64(n)/2), Kind: kind, Param: r.Float64(), Backend: "exact"}
}

// coldRequest is a never-repeating heterogeneous n=13 symmetric-threshold
// exact request with δ = n/3.
func coldRequest(seed, stream, i uint64) serve.EvalRequest {
	r := rngFor(seed, stream, i)
	pi := piVector(r, coldN)
	return serve.EvalRequest{N: coldN, Delta: float64(coldN) / 3, Pi: pi, Kind: "threshold", Param: uniform(r, 0.3, 0.7), Backend: "exact"}
}

// coldSeedRequest is entry j of the cold-exact disk-tier seed, a request
// shaped like the window's on a key the window never asks for. The
// entries are the same for every seed, so set-up costs the same whatever
// the seed.
func coldSeedRequest(j int) serve.EvalRequest {
	return coldRequest(corpusSeed, streamPool, uint64(j))
}

// searchRequests is one search-session op: a vector optimize on a
// homogeneous n=6 instance with a fresh δ, then a streamed 256-point
// oblivious α sweep on a fresh heterogeneous n=10 instance.
func searchRequests(seed, stream, i uint64) (serve.OptimizeRequest, serve.SweepRequest) {
	r := rngFor(seed, stream, i)
	opt := serve.OptimizeRequest{N: optN, Delta: uniform(r, 1, 3), Kind: "vector", Backend: "exact"}
	sw := serve.SweepRequest{
		N: sweepN, Delta: uniform(r, float64(sweepN)/4, float64(sweepN)/2), Pi: piVector(r, sweepN),
		Kind: "oblivious", From: 0, To: 1, Points: sweepPoints, Backend: "exact",
		Stream: true, ChunkSize: sweepChunk,
	}
	return opt, sw
}

// mcRequests is one mc-sample op: an n=10 homogeneous threshold rule at
// 200k trials, workers 1 and a fresh seed, first through the mc backend,
// then through mc-qmc.
func mcRequests(seed, stream, i uint64) (serve.EvalRequest, serve.EvalRequest) {
	r := rngFor(seed, stream, i)
	mc := serve.EvalRequest{
		N: mcN, Delta: uniform(r, 3, 5), Kind: "threshold", Param: uniform(r, 0.4, 0.7),
		Backend: "mc", Trials: mcTrials, Workers: 1, Seed: r.Uint64() | 1,
	}
	qmc := mc
	qmc.Backend = "mc-qmc"
	return mc, qmc
}

// evalInputs rebuilds the engine inputs the /v1/eval handler derives
// from a request, so layers below serve can be called on the op's own
// input. The sim config carries the server's observer, as the handler's
// does.
func evalInputs(req serve.EvalRequest, o *obs.Observer) (engine.Instance, engine.Rule, engine.Backend, sim.Config, error) {
	n := req.N
	if n == 0 {
		n = len(req.Pi)
	}
	inst, err := problem.NewPi(n, req.Delta, req.Pi)
	if err != nil {
		return inst, nil, 0, sim.Config{}, err
	}
	var rule engine.Rule
	switch req.Kind {
	case "threshold":
		rule = engine.SymmetricThreshold{Beta: req.Param}
	case "oblivious":
		rule = engine.SymmetricOblivious{A: req.Param}
	default:
		return inst, nil, 0, sim.Config{}, fmt.Errorf("kind %q", req.Kind)
	}
	backend, err := engine.ParseBackend(req.Backend)
	if err != nil {
		return inst, nil, 0, sim.Config{}, err
	}
	cfg := sim.Config{Trials: req.Trials, Seed: req.Seed, Workers: req.Workers, Replicates: req.Replicates, Obs: o}
	if cfg.Trials == 0 {
		cfg.Trials = serve.DefaultTrials
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return inst, rule, backend, cfg, nil
}
