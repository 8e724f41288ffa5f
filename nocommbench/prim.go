package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"time"

	"repro/internal/combin"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/nonoblivious"
	"repro/internal/oblivious"
	"repro/internal/problem"
	"repro/internal/qrand"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
)

// primitives times each layer's public functions on the inputs of the
// workload that exercises them, in every traced run, so each trace
// reports the whole per-layer set. Inputs come from their own stream.
func primitives(l *ladder, m map[string]metric) error {
	b := l.b
	// Sweeps, searches and fresh-key evaluations run on a default
	// memory-only stack of their own, so the figures do not depend on the
	// traced workload's stack.
	pst, err := newStack("", true)
	if err != nil {
		return err
	}
	defer pst.close()
	seed, o := b.seed, pst.o
	set := func(name, unit string, v float64, n int) { m[name] = metric{Value: v, Unit: unit, samples: n} }

	// Sweeps: the engine's sweep of a fresh instance (a miss), then the
	// wire cost per chunk of streaming it: a streamed roundtrip less the
	// engine's sweep, both on the now resident points, in alternating
	// order, so the sweep's arithmetic and its noise drop out.
	const sweeps, pairs = 8, 5
	engs := make([]float64, 0, sweeps)
	chunk := make([]float64, 0, sweeps*pairs)
	for k := uint64(0); k < sweeps; k++ {
		_, sw := searchRequests(seed, streamPrim, k)
		inst, err := problem.NewPi(sw.N, sw.Delta, sw.Pi)
		if err != nil {
			return err
		}
		sweep := func(name string) (float64, error) {
			return l.prim(name, k, func() error {
				ctx, cancel := requestCtx()
				defer cancel()
				return engineSweep(ctx, pst.eng, inst, sim.Config{Trials: serve.DefaultTrials, Seed: 1, Obs: o})
			})
		}
		t, err := sweep("engine.sweep")
		if err != nil {
			return err
		}
		engs = append(engs, t/1e3)
		stream := func() (float64, error) {
			var resp response
			t, err := l.prim("serve.stream_roundtrip", k, func() (err error) {
				resp, err = pst.post(request{path: "/v1/sweep", body: mustJSON(sw)})
				return err
			})
			if err == nil {
				err = checkSweep(sw, resp.body)
			}
			if err != nil {
				return 0, fmt.Errorf("streamed sweep %d: %w", k, err)
			}
			return t, nil
		}
		for r := 0; r < pairs; r++ {
			var rt, eng float64
			if r%2 == 0 {
				if rt, err = stream(); err == nil {
					eng, err = sweep("engine.sweep_hit")
				}
			} else if eng, err = sweep("engine.sweep_hit"); err == nil {
				rt, err = stream()
			}
			if err != nil {
				return err
			}
			chunk = append(chunk, (rt-eng)/1e3/float64(sweepPoints/sweepChunk))
		}
	}
	set("engine.sweep_us", "us", median(engs), sweeps)
	set("serve.stream_chunk_us", "us", median(chunk), sweeps*pairs)

	// The engine's own cost of a miss (key, singleflight slot, store
	// write, deadline goroutine): a fresh hot-eval-shaped key through the
	// engine, less the direct backend call on the same input.
	const missPairs = 400
	missSelf := make([]float64, 0, missPairs)
	for k := uint64(0); k < missPairs; k++ {
		inst, rule, backend, cfg, err := evalInputs(hotRequest(seed, streamPrim, 9000+k), o)
		if err != nil {
			return err
		}
		var res engine.Result
		engineMiss := func() (float64, error) {
			t, err := l.prim(rungMissEngine, k, func() (err error) {
				ctx, cancel := requestCtx()
				defer cancel()
				res, err = pst.eng.EvaluateWithCtx(ctx, inst, rule, backend, cfg)
				return err
			})
			if err == nil && res.Cached {
				err = fmt.Errorf("engine.miss: fresh key %d hit the cache", k)
			}
			return t, err
		}
		direct := func() (float64, error) {
			return l.prim(rungMissDirect, k, func() error {
				_, err := directBackend(inst, rule, engine.Exact, cfg, o)
				return err
			})
		}
		// Alternate which call runs first, so neither always finds the
		// other's data in the caches.
		first, second := engineMiss, direct
		if k%2 == 1 {
			first, second = direct, engineMiss
		}
		t1, err := first()
		if err != nil {
			return err
		}
		t2, err := second()
		if err != nil {
			return err
		}
		if k%2 == 1 {
			t1, t2 = t2, t1
		}
		missSelf = append(missSelf, (t1-t2)/1e3)
	}
	set("engine.miss_self_us", "us", median(missSelf), missPairs)

	// Vector search: engine time per objective evaluation, evaluations
	// and single-coordinate delta updates per search.
	const searches = 5
	var evals, updates int
	probes, err := repeat(searches, func(k uint64) (float64, error) {
		opt, _ := searchRequests(seed, streamPrim, 2000+k)
		inst, err := problem.New(opt.N, opt.Delta)
		if err != nil {
			return 0, err
		}
		var res engine.OptimizeResult
		t, err := l.prim("engine.optimize", k, func() (err error) {
			ctx, cancel := requestCtx()
			defer cancel()
			res, err = pst.eng.OptimizeCtx(ctx, inst, engine.ThresholdVectorFamily{}, engine.OptimizeOptions{Backend: engine.Exact})
			return err
		})
		if err == nil && res.DeltaUpdates == 0 {
			err = fmt.Errorf("engine.optimize: vector search %d made no delta updates", k)
		}
		evals += res.Evals
		updates += int(res.DeltaUpdates)
		return t / 1e3 / float64(max(res.Evals, 1)), err
	})
	if err != nil {
		return err
	}
	set("optimize.probe_us", "us", probes, searches)
	set("optimize.evals_per_op", "count", float64(evals)/searches, searches)
	set("exact.delta_updates_per_op", "count", float64(updates)/searches, searches)

	// Memory tier: a hit on one of hot-eval's resident keys.
	mem := store.NewMemory(store.Options{})
	keys := make([]string, hotPoolSize)
	for j := range keys {
		inst, rule, _, _, err := evalInputs(hotPoolRequest(seed, j), nil)
		if err != nil {
			return err
		}
		keys[j] = storeKey(inst, rule)
		slot, _ := mem.Acquire(keys[j])
		slot.Fill(func() (store.Value, error) { return store.Value{P: 0.5, Backend: "exact"}, nil })
	}
	const batch = 100
	hit, err := repeat(200, func(k uint64) (float64, error) {
		t, err := l.prim("store.mem_hit", k, func() error {
			for t := uint64(0); t < batch; t++ {
				if err := lookup(mem, keys[(k*batch+t)%hotPoolSize]); err != nil {
					return err
				}
			}
			return nil
		})
		return t / batch, err
	})
	if err != nil {
		return err
	}
	set("store.mem_hit_ns", "ns", hit, 200*batch)

	// Disk tier: a write-through of a cold-exact-shaped entry.
	disk, err := store.OpenDisk(filepath.Join(b.out, "disk-put"), nil)
	if err != nil {
		return err
	}
	put, err := repeat(100, func(k uint64) (float64, error) {
		inst, rule, _, _, err := evalInputs(coldRequest(seed, streamPrim, 3000+k), nil)
		if err != nil {
			return 0, err
		}
		key := storeKey(inst, rule)
		return l.prim("store.disk_put", k, func() error {
			return disk.Put(key, store.Value{P: 0.5, Backend: "exact"})
		})
	})
	if err != nil {
		return err
	}
	set("store.disk_put_us", "us", put/1e3, 100)

	// The cold-exact tables at n=13.
	workers := exactWorkers()
	piEval, err := repeat(10, func(k uint64) (float64, error) {
		req := coldRequest(seed, streamPrim, 4000+k)
		return l.prim("nonoblivious.pi_eval", k, func() error {
			_, err := nonoblivious.WinningProbabilityPiOpts(repeated(req.Param, coldN), req.Pi, req.Delta, workers, o)
			return err
		})
	})
	if err != nil {
		return err
	}
	set("nonoblivious.pi_eval_us", "us", piEval/1e3, 10)
	vols, err := repeat(20, func(k uint64) (float64, error) {
		req := coldRequest(seed, streamPrim, 5000+k)
		lows := make([]float64, coldN)
		for i, p := range req.Pi {
			lows[i] = math.Min(req.Param, p)
		}
		return l.prim("dist.subset_volumes", k, func() error {
			_, _, err := dist.AllSubsetVolumes(lows, req.Delta, workers)
			return err
		})
	})
	if err != nil {
		return err
	}
	set("dist.subset_volumes_us", "us", vols/1e3, 20)
	src := make([]float64, 1<<coldN)
	r := rngFor(seed, streamPrim, 6000)
	for i := range src {
		src[i] = r.Float64()
	}
	arr := make([]float64, len(src))
	sos, err := repeat(100, func(k uint64) (float64, error) {
		copy(arr, src)
		return l.prim("combin.sos", k, func() error { return combin.SumOverSubsets(arr, coldN, workers) })
	})
	if err != nil {
		return err
	}
	set("combin.sos_us", "us", sos/1e3, 100)
	set("combin.sos_bytes", "B", float64(coldN*(1<<coldN)*8*2), 1)

	// The reusable evaluators the vector search and the sweep run on.
	opt, sw := searchRequests(seed, streamPrim, 7000)
	nev, err := nonoblivious.NewEvaluator(optN, opt.Delta)
	if err != nil {
		return err
	}
	th := make([]float64, optN)
	evaluate, err := repeat(200, func(k uint64) (float64, error) {
		for i := range th {
			th[i] = r.Float64()
		}
		return l.prim("nonoblivious.evaluate", k, func() error { _, err := nev.Evaluate(th); return err })
	})
	if err != nil {
		return err
	}
	set("nonoblivious.evaluate_us", "us", evaluate/1e3, 200)
	setc, err := repeat(1000, func(k uint64) (float64, error) {
		i, v := int(k%optN), r.Float64()
		return l.prim("nonoblivious.setcoord", k, func() error { _, err := nev.SetCoord(i, v); return err })
	})
	if err != nil {
		return err
	}
	set("nonoblivious.setcoord_us", "us", setc/1e3, 1000)
	grid := alphaGrid()
	alphas := make([]float64, sweepN)
	obl, err := repeat(10, func(k uint64) (float64, error) {
		oev, err := oblivious.NewEvaluator(sw.Pi, sw.Delta, 1)
		if err != nil {
			return 0, err
		}
		return l.prim("oblivious.evaluate_grid", k, func() error {
			for _, a := range grid {
				for i := range alphas {
					alphas[i] = a
				}
				if _, err := oev.Evaluate(alphas); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	set("oblivious.evaluate_us", "us", obl/1e3, 10)

	// mc-sample's sampling layers, per trial.
	mcReq, _ := mcRequests(seed, streamPrim, 8000)
	inst, rule, _, cfg, err := evalInputs(mcReq, o)
	if err != nil {
		return err
	}
	sys, err := rule.System(inst)
	if err != nil {
		return err
	}
	kern, ok := model.NewBatchKernel(sys)
	if !ok {
		return fmt.Errorf("mc-sample system has no lane kernel")
	}
	sc := model.GetBatchScratch()
	defer sc.Release()
	perTrial := func(name string, fn func(k uint64) error) (float64, error) {
		return repeat(5, func(k uint64) (float64, error) {
			t, err := l.prim(name, k, func() error { return fn(k) })
			return t / mcTrials, err
		})
	}
	kns, err := perTrial("model.kernel", func(k uint64) error {
		kern.PlaySrc(sc, rand.NewPCG(seed, k), mcTrials)
		return nil
	})
	if err != nil {
		return err
	}
	set("model.kernel_ns_per_trial", "ns", kns, 5*mcTrials)
	mcns, err := perTrial("sim.mc", func(k uint64) error {
		c := cfg
		c.Seed += k
		_, err := sim.WinProbability(sys, c)
		return err
	})
	if err != nil {
		return err
	}
	set("sim.mc_ns_per_trial", "ns", mcns, 5*mcTrials)
	qmcns, err := perTrial("sim.qmc", func(k uint64) error {
		c := cfg
		c.Seed += k
		_, err := sim.WinProbabilityQMC(sys, c)
		return err
	})
	if err != nil {
		return err
	}
	set("sim.qmc_ns_per_trial", "ns", qmcns, 5*mcTrials)
	seq, err := qrand.New(mcN, seed)
	if err != nil {
		return err
	}
	const fillPoints = 4096
	buf := make([]float64, fillPoints)
	fill, err := repeat(50, func(k uint64) (float64, error) {
		t, err := l.prim("qrand.fill", k, func() error {
			for d := 0; d < mcN; d++ {
				seq.Fill(buf, d, k*fillPoints, fillPoints)
			}
			return nil
		})
		return t / fillPoints, err
	})
	if err != nil {
		return err
	}
	set("qrand.fill_ns_per_point", "ns", fill, 50*fillPoints)
	return nil
}

// prim times one call of a layer primitive as a root span and returns
// its duration in nanoseconds.
func (l *ladder) prim(name string, k uint64, fn func() error) (float64, error) {
	sp := l.tr.begin(name, -1, k)
	t0 := time.Now()
	err := fn()
	d := float64(time.Since(t0).Nanoseconds())
	l.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// repeat collects n samples and returns their median.
func repeat(n int, sample func(k uint64) (float64, error)) (float64, error) {
	xs := make([]float64, n)
	for k := range xs {
		x, err := sample(uint64(k))
		if err != nil {
			return 0, err
		}
		xs[k] = x
	}
	return median(xs), nil
}
