package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/store"
)

// hotEval: each op is one POST /v1/eval whose key is drawn Zipf(1.1)
// from a pool of 1000 homogeneous exact symmetric threshold/oblivious
// requests, n=3-8, all evaluated during setup. Every measured op is a
// memory-tier hit, so the op's work is transport, JSON, middleware, the
// engine key and the store lookup, with no math.
type hotEval struct {
	seed   uint64
	bodies [][]byte            // pool entry j's request body
	reqs   []serve.EvalRequest // pool entry j
	want   []float64           // pool entry j's P from a separate engine
	keys   map[uint64][]uint16 // per-stream Zipf draws over the pool
}

func (h *hotEval) name() string   { return "hot-eval" }
func (h *hotEval) diskTier() bool { return false }

func (h *hotEval) setup(b *bench) error {
	h.bodies = make([][]byte, hotPoolSize)
	h.reqs = make([]serve.EvalRequest, hotPoolSize)
	h.want = make([]float64, hotPoolSize)
	ref := engine.New(engine.Config{})
	ctx, cancel := requestCtx()
	defer cancel()
	for j := range h.bodies {
		req := hotPoolRequest(h.seed, j)
		h.reqs[j] = req
		h.bodies[j] = mustJSON(req)
		inst, rule, backend, cfg, err := evalInputs(req, nil)
		if err != nil {
			return err
		}
		res, err := ref.EvaluateWithCtx(ctx, inst, rule, backend, cfg)
		if err != nil {
			return fmt.Errorf("reference value of pool entry %d: %w", j, err)
		}
		h.want[j] = res.P
	}
	if err := h.warm(b.st); err != nil {
		return err
	}
	if h.want[0] != pStar {
		return fmt.Errorf("reference P(β*) = %v, want the pinned %v", h.want[0], pStar)
	}
	h.keys = map[uint64][]uint16{
		streamOps:    zipfKeys(h.seed, streamOps, hotZipfLength),
		streamLadder: zipfKeys(h.seed, streamLadder, 1<<12),
	}
	return nil
}

func zipfKeys(seed, stream uint64, n int) []uint16 {
	z := rand.NewZipf(rngFor(seed, stream, 0), hotZipfS, 1, hotPoolSize-1)
	keys := make([]uint16, n)
	for i := range keys {
		keys[i] = uint16(z.Uint64())
	}
	return keys
}

func (h *hotEval) key(stream, i uint64) int {
	ks := h.keys[stream]
	return int(ks[i%uint64(len(ks))])
}

func (h *hotEval) op(stream, i uint64) []request {
	return []request{{path: "/v1/eval", body: h.bodies[h.key(stream, i)]}}
}

func (h *hotEval) check(i uint64, resps []response) error {
	return h.checkEval(h.key(streamOps, i), resps[0].body)
}

// checkEval demands the pool entry's setup value bit for bit.
func (h *hotEval) checkEval(j int, body []byte) error {
	var got serve.EvalResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	if got.Degraded {
		return fmt.Errorf("pool entry %d: degraded reply", j)
	}
	if math.Float64bits(got.P) != math.Float64bits(h.want[j]) {
		return fmt.Errorf("pool entry %d: P = %v, want %v bit for bit", j, got.P, h.want[j])
	}
	if j == 0 && got.P != pStar {
		return fmt.Errorf("β* request: P = %v, want P* = %v", got.P, pStar)
	}
	return nil
}

func (h *hotEval) verify(*bench) (int, int, error) { return 0, 0, nil }

func (h *hotEval) premise(d counterDiff, ops int) error {
	hits, misses := d["engine.cache.hits"], d["engine.cache.misses"]
	if ratio := float64(hits) / float64(max(hits+misses, 1)); ratio < 0.99 {
		return fmt.Errorf("engine hit ratio %.4f < 0.99 (%d hits, %d misses)", ratio, hits, misses)
	}
	if n := d["engine.evals.exact"]; n != 0 {
		return fmt.Errorf("%d exact evaluations in the window, want 0", n)
	}
	return nil
}

func (h *hotEval) ladderSamples() int { return 1000 }

// warmLadder warms the ladder's own stacks, so every rung hits.
func (h *hotEval) warmLadder(l *ladder) error {
	for _, st := range []*stack{l.hst, l.est, l.nst} {
		if err := h.warm(st); err != nil {
			return err
		}
	}
	return nil
}

func (h *hotEval) ladder(l *ladder, j uint64) error {
	k := h.key(streamLadder, j)
	rq := request{path: "/v1/eval", body: h.bodies[k]}
	inst, rule, backend, cfg, err := evalInputs(h.reqs[k], l.est.o)
	if err != nil {
		return err
	}
	rt, err := l.post(rq)
	if err != nil {
		return err
	}
	if err := h.checkEval(k, rt.body); err != nil {
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
	res, err := l.engineEval(rungEngine, inst, rule, backend, cfg)
	if err != nil {
		return err
	}
	if !res.Cached {
		return fmt.Errorf("pool entry %d missed the cache", k)
	}
	l.record(rungHit, l.last)
	key := storeKey(inst, rule)
	if err := l.timed(rungBackend, func() error { return lookup(l.est.st, key) }); err != nil {
		return err
	}
	l.record(rungKernel, 0) // a hit computes nothing
	return nil
}

// warm evaluates the whole pool into the stack's cache.
func (h *hotEval) warm(st *stack) error {
	ctx, cancel := requestCtx()
	defer cancel()
	for j, req := range h.reqs {
		inst, rule, backend, cfg, err := evalInputs(req, st.o)
		if err == nil {
			_, err = st.eng.EvaluateWithCtx(ctx, inst, rule, backend, cfg)
		}
		if err != nil {
			return fmt.Errorf("warming pool entry %d: %w", j, err)
		}
	}
	return nil
}

// lookup is the store read of an engine hit: Acquire on a resident key,
// then the filled slot's Result.
func lookup(st store.Store, key string) error {
	slot, ok := st.Acquire(key)
	if !ok || !slot.Done() {
		return fmt.Errorf("store key %q is not resident", key)
	}
	_, err := slot.Result()
	return err
}
