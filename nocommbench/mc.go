package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/model"
	"repro/internal/nonoblivious"
	"repro/internal/qrand"
	"repro/internal/serve"
	"repro/internal/sim"
)

// mcSample: each op is POST /v1/eval with backend mc, then the same rule
// with backend mc-qmc: n=10 homogeneous threshold, 200k trials, workers
// 1 and a fresh seed. The lane kernel, the simulator and the Sobol
// generator do nearly all the work, which no other workload gives them.
// With workers 1, the 2 clients use exactly the 2 cores.
type mcSample struct {
	seed uint64
}

// Check tolerances: |p - exact| within these multiples of the reported
// std_err. Plain MC's std_err is binomial, so 5 is a 5σ check
// (two-sided tail 5.7e-7). The mc-qmc std_err is estimated from its 16
// replicate means, so its error over std_err is Student-t with 15
// degrees of freedom; 11 gives that distribution the same 5.7e-7 tail.
const (
	mcSigmas  = 5
	qmcSigmas = 11
)

func (m *mcSample) name() string   { return "mc-sample" }
func (m *mcSample) diskTier() bool { return false }

// setup seeds the memory tier with mcSeeds ops of the set-up corpus,
// served and checked like the window's.
func (m *mcSample) setup(b *bench) error {
	for j := uint64(0); j < mcSeeds; j++ {
		mc, qmc := mcRequests(corpusSeed, streamPool, j)
		for _, req := range []serve.EvalRequest{mc, qmc} {
			resp, err := b.st.post(request{path: "/v1/eval", body: mustJSON(req)})
			if err == nil {
				err = checkSampled(req, resp.body)
			}
			if err != nil {
				return fmt.Errorf("seeding op %d: %w", j, err)
			}
		}
	}
	return nil
}

func mcOp(mc, qmc serve.EvalRequest) []request {
	return []request{{path: "/v1/eval", body: mustJSON(mc)}, {path: "/v1/eval", body: mustJSON(qmc)}}
}

func (m *mcSample) op(stream, i uint64) []request {
	return mcOp(mcRequests(m.seed, stream, i))
}

func (m *mcSample) check(i uint64, resps []response) error {
	mc, qmc := mcRequests(m.seed, streamOps, i)
	if err := checkSampled(mc, resps[0].body); err != nil {
		return err
	}
	return checkSampled(qmc, resps[1].body)
}

// checkSampled demands a computed estimate at the requested trial count
// within mcSigmas (mc) or qmcSigmas (mc-qmc) standard errors of the exact
// Theorem 5.1 value.
func checkSampled(req serve.EvalRequest, body []byte) error {
	sigmas := mcSigmas
	if req.Backend == "mc-qmc" {
		sigmas = qmcSigmas
	}
	var got serve.EvalResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding %s reply: %w", req.Backend, err)
	}
	switch {
	case got.Degraded:
		return fmt.Errorf("%s: degraded reply", req.Backend)
	case got.Backend != req.Backend:
		return fmt.Errorf("backend %q, want %q", got.Backend, req.Backend)
	case got.Trials != int64(req.Trials):
		return fmt.Errorf("%s: %d trials, want %d", req.Backend, got.Trials, req.Trials)
	case !(got.StdErr > 0):
		return fmt.Errorf("%s: std_err %v", req.Backend, got.StdErr)
	}
	exact, err := exactSymmetric(req)
	if err != nil {
		return err
	}
	if d := math.Abs(got.P - exact); d > float64(sigmas)*got.StdErr {
		return fmt.Errorf("%s: P = %v, exact %v: off by %.2f std_err", req.Backend, got.P, exact, d/got.StdErr)
	}
	return nil
}

// exactSymmetric is the request's exact winning probability, Theorem 5.1
// on the homogeneous instance.
func exactSymmetric(req serve.EvalRequest) (float64, error) {
	return nonoblivious.SymmetricWinningProbability(req.N, req.Delta, req.Param)
}

func (m *mcSample) verify(*bench) (int, int, error) { return 0, 0, nil }

func (m *mcSample) premise(d counterDiff, ops int) error {
	if got, want := d["sim.trials"], int64(ops)*2*mcTrials; got != want {
		return fmt.Errorf("%d simulated trials over %d ops, want %d", got, ops, want)
	}
	return nil
}

func (m *mcSample) ladderSamples() int { return 20 }

func (m *mcSample) ladder(l *ladder, j uint64) error {
	mc, qmc := mcRequests(m.seed, streamLadder, j)
	for _, req := range []serve.EvalRequest{mc, qmc} {
		rq := request{path: "/v1/eval", body: mustJSON(req)}
		rt, err := l.post(rq)
		if err != nil {
			return err
		}
		if err := checkSampled(req, rt.body); err != nil {
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
		if err := sampledRungs(l, req); err != nil {
			return err
		}
	}
	return nil
}

// sampledRungs times the engine, backend and kernel rungs of one fresh
// sampled request, then a hit on the key it made resident.
func sampledRungs(l *ladder, req serve.EvalRequest) error {
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
		_, err := directBackend(inst, rule, backend, cfg, l.est.o)
		return err
	}); err != nil {
		return err
	}
	sys, err := rule.System(inst)
	if err != nil {
		return err
	}
	k, ok := model.NewBatchKernel(sys)
	if !ok {
		return fmt.Errorf("%s has no lane kernel", rule.Name())
	}
	sc := model.GetBatchScratch()
	defer sc.Release()
	if err := l.timed(rungKernel, func() error {
		if req.Backend == "mc" {
			k.PlaySrc(sc, rand.NewPCG(req.Seed, 1), req.Trials)
			return nil
		}
		reps := sim.DefaultReplicates
		for r := 0; r < reps; r++ {
			seq, err := qrand.New(k.Dims(), req.Seed+uint64(r))
			if err != nil {
				return err
			}
			k.PlayQMC(sc, seq, 0, req.Trials/reps)
		}
		return nil
	}); err != nil {
		return err
	}
	return l.hit(inst, rule, backend, cfg)
}
