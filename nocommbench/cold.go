package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"sync"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/nonoblivious"
	"repro/internal/serve"
)

// coldExact: each op is one POST /v1/eval that never repeats, a
// heterogeneous n=13 symmetric-threshold exact request, on a server with
// a disk-tier cache. Every op misses, pays the full subset-volume table
// build and the pruned bin-1 walk, and writes through to disk.
type coldExact struct {
	seed   uint64
	mu     sync.Mutex
	sample map[uint64]float64 // sampled op -> served P, for verify
}

// coldCheckEvery is the sampling rate of the direct recomputation check.
const coldCheckEvery = 64

func (c *coldExact) name() string   { return "cold-exact" }
func (c *coldExact) diskTier() bool { return true }

// setup seeds the disk tier with coldSeeds computed entries, so the
// window's write-throughs land beside existing ones. A serial engine over
// the server's store computes them, as a cache-warming job would.
func (c *coldExact) setup(b *bench) error {
	c.sample = map[uint64]float64{}
	warm := engine.New(engine.Config{Obs: b.st.o, Store: b.st.st, ExactWorkers: 1})
	ctx, cancel := requestCtx()
	defer cancel()
	for j := 0; j < coldSeeds; j++ {
		inst, rule, backend, cfg, err := evalInputs(coldSeedRequest(j), b.st.o)
		if err == nil {
			_, err = warm.EvaluateWithCtx(ctx, inst, rule, backend, cfg)
		}
		if err != nil {
			return fmt.Errorf("seeding disk entry %d: %w", j, err)
		}
	}
	return nil
}

func (c *coldExact) op(stream, i uint64) []request {
	return []request{{path: "/v1/eval", body: mustJSON(coldRequest(c.seed, stream, i))}}
}

func (c *coldExact) check(i uint64, resps []response) error {
	p, err := checkExactEval(resps[0].body)
	if err != nil {
		return err
	}
	if rngFor(c.seed, streamCheck, i).IntN(coldCheckEvery) == 0 {
		c.mu.Lock()
		c.sample[i] = p
		c.mu.Unlock()
	}
	return nil
}

// checkExactEval decodes an exact /v1/eval reply that must have been
// computed: not degraded, not cached, a probability.
func checkExactEval(body []byte) (float64, error) {
	var got serve.EvalResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return 0, fmt.Errorf("decoding reply: %w", err)
	}
	switch {
	case got.Degraded:
		return 0, fmt.Errorf("degraded reply")
	case got.Backend != "exact":
		return 0, fmt.Errorf("backend %q, want exact", got.Backend)
	case !(got.P >= 0 && got.P <= 1):
		return 0, fmt.Errorf("P = %v outside [0, 1]", got.P)
	}
	return got.P, nil
}

func minPi(pi []float64) float64 {
	m := 1.0
	for _, p := range pi {
		m = math.Min(m, p)
	}
	return m
}

func repeated(v float64, n int) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = v
	}
	return out
}

// verify recomputes the sampled ops directly and checks one n=8 instance
// served over HTTP against the big.Rat oracle.
func (c *coldExact) verify(b *bench) (int, int, error) {
	failed := 0
	var first error
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	for i, p := range c.sample {
		req := coldRequest(c.seed, streamOps, i)
		want, err := nonoblivious.WinningProbabilityPiOpts(repeated(req.Param, coldN), req.Pi, req.Delta, exactWorkers(), nil)
		if err != nil {
			fail(err)
			continue
		}
		if bound := nonoblivious.ExactErrorBound(coldN, req.Delta, minPi(req.Pi)); math.Abs(p-want) > bound {
			fail(fmt.Errorf("op %d: served P = %v, direct %v, beyond the bound %g", i, p, want, bound))
		}
	}
	// The rational oracle, once per run.
	r := rngFor(c.seed, streamCheck, 1<<40)
	const n = 8
	req := serve.EvalRequest{N: n, Delta: float64(n) / 3, Pi: piVector(r, n), Kind: "threshold", Param: uniform(r, 0.3, 0.7), Backend: "exact"}
	resp, err := b.st.post(request{path: "/v1/eval", body: mustJSON(req)})
	if err == nil {
		var p float64
		if p, err = checkExactEval(resp.body); err == nil {
			err = checkRat(req, p)
		}
	}
	if err != nil {
		fail(fmt.Errorf("rational oracle instance: %w", err))
	}
	return 1, failed, first
}

func checkRat(req serve.EvalRequest, p float64) error {
	th := make([]*big.Rat, req.N)
	pi := make([]*big.Rat, req.N)
	for k := range th {
		th[k] = new(big.Rat).SetFloat64(req.Param)
		pi[k] = new(big.Rat).SetFloat64(req.Pi[k])
	}
	exact, err := nonoblivious.WinningProbabilityPiRat(th, pi, new(big.Rat).SetFloat64(req.Delta))
	if err != nil {
		return err
	}
	want, _ := exact.Float64()
	if bound := nonoblivious.ExactErrorBound(req.N, req.Delta, minPi(req.Pi)); math.Abs(p-want) > bound {
		return fmt.Errorf("served P = %v, oracle %v, beyond the bound %g", p, want, bound)
	}
	return nil
}

func (c *coldExact) premise(d counterDiff, ops int) error {
	if hits := d["engine.cache.hits"]; hits != 0 {
		return fmt.Errorf("%d cache hits in the window, want 0", hits)
	}
	if w := d["store.disk.writes"]; w != int64(ops) {
		return fmt.Errorf("%d disk writes for %d ops, want one per op", w, ops)
	}
	return nil
}

func (c *coldExact) ladderSamples() int { return 60 }

func (c *coldExact) ladder(l *ladder, j uint64) error {
	req := coldRequest(c.seed, streamLadder, j)
	rq := request{path: "/v1/eval", body: mustJSON(req)}
	rt, err := l.post(rq)
	if err != nil {
		return err
	}
	if _, err := checkExactEval(rt.body); err != nil {
		return err
	}
	if err := l.handler(rq); err != nil {
		return err
	}
	var reply serve.EvalResponse
	if err := json.Unmarshal(rt.body, &reply); err != nil {
		return err
	}
	if err := l.jsonCodec(rq.body, new(serve.EvalRequest), reply); err != nil {
		return err
	}
	return exactRungs(l, req)
}

// exactRungs times the engine, backend and kernel rungs of one fresh
// heterogeneous threshold request, then a hit on the key it made
// resident.
func exactRungs(l *ladder, req serve.EvalRequest) error {
	inst, rule, backend, cfg, err := evalInputs(req, l.est.o)
	if err != nil {
		return err
	}
	res, err := l.engineEval(rungEngine, inst, rule, backend, cfg)
	if err != nil {
		return err
	}
	if res.Cached {
		return fmt.Errorf("fresh key hit the cache")
	}
	if err := l.timed(rungBackend, func() error {
		_, err := directBackend(inst, rule, engine.Exact, cfg, l.est.o)
		return err
	}); err != nil {
		return err
	}
	lows := make([]float64, len(req.Pi))
	for k, p := range req.Pi {
		lows[k] = math.Min(req.Param, p)
	}
	if err := l.timed(rungKernel, func() error {
		_, _, err := dist.AllSubsetVolumes(lows, req.Delta, exactWorkers())
		return err
	}); err != nil {
		return err
	}
	return l.hit(inst, rule, backend, cfg)
}
