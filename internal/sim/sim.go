// Package sim is the Monte-Carlo engine used to validate every analytic
// result in the reproduction: it estimates winning probabilities of
// arbitrary decision systems (Theorems 4.1 and 5.1), the omniscient
// feasibility upper bound, and sample statistics of bin loads, with
// deterministic seeding and parallel workers.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/stats"
)

// ErrRuleFailed classifies simulation failures caused by a player's rule
// (or input sampler) returning an error mid-trial, as opposed to invalid
// configuration. Callers and the observability event sink use
// errors.Is(err, ErrRuleFailed) to tell the two apart; the original cause
// stays in the chain.
var ErrRuleFailed = errors.New("trial failed")

// defaultCheckpoints is the number of convergence checkpoints emitted per
// run when Config.CheckpointEvery is left zero.
const defaultCheckpoints = 20

// batchSize is how many trials the batched kernel samples and plays per
// iteration. Large enough to amortize the per-batch bookkeeping, small
// enough that the scratch buffers stay L1/L2-resident for the paper's
// player counts.
const batchSize = 256

// Config controls a simulation run.
type Config struct {
	// Trials is the total number of rounds to play. Must be positive.
	Trials int
	// Workers is the number of parallel workers; 0 selects GOMAXPROCS.
	// Results are deterministic for a fixed (Seed, Workers) pair: each
	// worker owns an independent, seeded PCG stream.
	Workers int
	// Seed seeds the per-worker random streams.
	Seed uint64
	// Obs optionally instruments the run: sim.trials / sim.wins /
	// sim.rng_draws counters, per-worker throughput gauges, nested
	// run → worker spans, and a convergence checkpoint trace. Observed
	// runs play the same kernel on the same streams as plain ones, so
	// results are identical; batched runs compute sim.rng_draws as
	// trials × draws per trial and feed the checkpointer once per batch.
	// A nil Observer costs a few branches per run, none per trial.
	Obs *obs.Observer
	// CheckpointEvery emits one convergence checkpoint (running estimate
	// + Wilson CI) every k trials when Obs is enabled. 0 picks
	// Trials/defaultCheckpoints; ignored without Obs.
	CheckpointEvery int
	// Replicates is the number of independently scrambled randomizations
	// the quasi-Monte-Carlo path (WinProbabilityQMC) averages to form its
	// estimate and standard error; 0 selects DefaultReplicates. Ignored by
	// the pseudo-random paths.
	Replicates int
}

func (c Config) validate() (Config, error) {
	if c.Trials <= 0 {
		return c, fmt.Errorf("sim: trial count %d must be positive", c.Trials)
	}
	if c.CheckpointEvery < 0 {
		return c, fmt.Errorf("sim: checkpoint interval %d must be non-negative", c.CheckpointEvery)
	}
	w, err := WorkerCount(c.Workers, c.Trials)
	if err != nil {
		return c, err
	}
	c.Workers = w
	return c, nil
}

// WorkerCount resolves a requested parallel worker count against the
// repo-wide policy: 0 selects the default of runtime.GOMAXPROCS(0),
// negative counts are rejected, and a positive jobs bound clamps the count
// so no worker sits idle (jobs ≤ 0 means "unbounded"). Every parallel
// fan-out — sim.Config, py91.Evaluate, engine.Sweep, and the CLI -workers
// flags — routes through this one helper so defaulting and clamping cannot
// drift between layers again.
func WorkerCount(requested, jobs int) (int, error) {
	if requested < 0 {
		return 0, fmt.Errorf("sim: worker count %d must be non-negative", requested)
	}
	w := requested
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if jobs > 0 && w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w, nil
}

// workerSource derives worker w's independent random stream.
func (c Config) workerSource(w int) *rand.PCG {
	// SplitMix-style stream separation: distinct, well-mixed PCG seeds.
	s := c.Seed + 0x9e3779b97f4a7c15*uint64(w+1)
	s ^= s >> 30
	s *= 0xbf58476d1ce4e5b9
	return rand.NewPCG(s, s^0x94d049bb133111eb)
}

// countingSource wraps a rand.Source to count draws for the sim.rng_draws
// counter on the per-trial path, whose draws per trial depend on the
// rules. It is only interposed when observability is enabled, so the
// plain path never pays the indirection.
type countingSource struct {
	src rand.Source
	n   int64
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

// Result summarizes a Bernoulli estimate (winning or feasibility
// probability).
type Result struct {
	// P is the estimated probability.
	P float64
	// StdErr is the binomial standard error on the pseudo-random paths,
	// or the randomized-replicate standard error on the QMC path.
	StdErr float64
	// CILo and CIHi bound the 95% confidence interval: Wilson for the
	// pseudo-random paths, Student-t over replicate means for QMC.
	CILo, CIHi float64
	// Wins and Trials are the raw counts.
	Wins, Trials int64
	// Replicates is the number of QMC randomizations averaged; 0 on the
	// pseudo-random paths.
	Replicates int
}

func resultFrom(p stats.Proportion) (Result, error) {
	lo, hi, err := p.WilsonCI(1.96)
	if err != nil {
		return Result{}, err
	}
	return Result{
		P:      p.Estimate(),
		StdErr: p.StdErr(),
		CILo:   lo,
		CIHi:   hi,
		Wins:   p.Successes(),
		Trials: p.Trials(),
	}, nil
}

// trialFunc plays one round and reports success.
type trialFunc func(rng *rand.Rand) (bool, error)

// trialFactory builds worker w's trial function. It runs once per
// worker, inside that worker's body, so the returned closure may own
// scratch buffers (input vectors, reusable Outcomes) without any
// cross-worker sharing.
type trialFactory func(w int) trialFunc

// wrapTrialErr classifies a mid-trial failure under ErrRuleFailed while
// keeping the cause in the chain.
func wrapTrialErr(err error) error {
	return fmt.Errorf("sim: %w: %w", ErrRuleFailed, err)
}

// runLabeled runs a worker body under a pprof goroutine label so
// -cpuprofile output attributes hot-loop samples per sim worker.
func runLabeled(w int, body func()) {
	pprof.Do(context.Background(), pprof.Labels("sim_worker", strconv.Itoa(w)), func(context.Context) {
		body()
	})
}

// splitQuota returns worker w's share of the trial budget.
func splitQuota(trials, workers, w int) int {
	quota := trials / workers
	if w < trials%workers {
		quota++
	}
	return quota
}

// fanOut runs body once per worker with that worker's trial quota, each
// under a pprof label, and returns the per-worker errors. A single worker
// runs inline, skipping the goroutine and WaitGroup scaffolding; its seed
// and quota are the worker-0 values, so results do not depend on which
// form runs.
func fanOut(cfg Config, body func(w, quota int) error) []error {
	errs := make([]error, cfg.Workers)
	if cfg.Workers == 1 {
		runLabeled(0, func() { errs[0] = body(0, cfg.Trials) })
		return errs
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w, quota int) {
			defer wg.Done()
			runLabeled(w, func() { errs[w] = body(w, quota) })
		}(w, splitQuota(cfg.Trials, cfg.Workers, w))
	}
	wg.Wait()
	return errs
}

// run is the shared state of one Bernoulli estimate: per-worker counters,
// the RNG-draw total, and — only when cfg.Obs is set — the root span and
// the convergence checkpointer. Without an observer those stay nil and
// every use of them is a nil-safe no-op, so plain and observed runs share
// one fan-out and produce identical results.
type run struct {
	cfg      Config
	root     *obs.Span
	ck       *checkpointer
	counters []stats.Proportion
	rngDraws atomic.Int64
}

func newRun(cfg Config, name string) *run {
	r := &run{cfg: cfg, counters: make([]stats.Proportion, cfg.Workers)}
	if cfg.Obs.Enabled() {
		r.root = cfg.Obs.StartSpan("sim." + name)
		r.ck = newCheckpointer(cfg)
	}
	return r
}

// play fans body out over the workers — each accumulating into
// r.counters[w] — and merges the result. With an observer each worker
// also runs under a child span and sets its throughput gauge, and the
// run-level counters are flushed at the end.
func (r *run) play(body func(w, quota int) error) (Result, error) {
	o := r.cfg.Obs
	defer r.root.End()
	errs := fanOut(r.cfg, func(w, quota int) error {
		if r.root == nil {
			return body(w, quota)
		}
		sp := r.root.Child(fmt.Sprintf("worker[%d]", w))
		defer sp.End()
		start := time.Now()
		err := body(w, quota)
		if el, n := time.Since(start).Seconds(), r.counters[w].Trials(); el > 0 && n > 0 {
			o.Gauge(fmt.Sprintf("sim.worker.%d.trials_per_sec", w)).Set(float64(n) / el)
		}
		return err
	})
	var total stats.Proportion
	for _, c := range r.counters {
		total.Merge(c)
	}
	o.Counter("sim.runs").Inc()
	o.Counter("sim.rng_draws").Add(r.rngDraws.Load())
	o.Counter("sim.trials").Add(total.Trials())
	o.Counter("sim.wins").Add(total.Successes())
	for _, err := range errs {
		if err != nil {
			err = wrapTrialErr(err)
			o.EmitError("sim.trial", err)
			return Result{}, err
		}
	}
	return resultFrom(total)
}

// record accounts one finished chunk of worker w's trials: flags holds
// their win flags and won the number set.
func (r *run) record(w int, flags []bool, won int) {
	// won counts a subset of flags, so AddN's range check cannot fail.
	_ = r.counters[w].AddN(int64(won), int64(len(flags)))
	r.ck.recordBatch(flags, won)
}

// runBernoulli fans per-trial rounds out over workers and merges the
// counts. The name labels the run's root span when observability is on.
// This is the generic path: the batched kernel in runBatch handles
// systems whose rules all implement model.BatchRule. An observed run
// counts draws through countingSource, since a generic trial's draw count
// depends on its rules. Like the batched path, each worker plays and
// records its trials batchSize at a time.
func runBernoulli(cfg Config, name string, newTrial trialFactory) (Result, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return Result{}, err
	}
	r := newRun(cfg, name)
	return r.play(func(w, quota int) error {
		trial := newTrial(w)
		var src rand.Source = cfg.workerSource(w)
		if cfg.Obs.Enabled() {
			cs := &countingSource{src: src}
			defer func() { r.rngDraws.Add(cs.n) }()
			src = cs
		}
		rng := rand.New(src)
		var flags [batchSize]bool
		for done := 0; done < quota; {
			b := min(batchSize, quota-done)
			won := 0
			for i := range flags[:b] {
				ok, err := trial(rng)
				if err != nil {
					return err
				}
				flags[i] = ok
				if ok {
					won++
				}
			}
			r.record(w, flags[:b], won)
			done += b
		}
		return nil
	})
}

// runBatch is the allocation-free fast path: each worker samples and
// plays batchSize trials per kernel call from pooled scratch buffers —
// no per-trial slices, no per-player interface dispatch, every draw a
// direct call on the worker's *rand.PCG. Seeding and per-worker quotas
// match runBernoulli exactly, and the kernel preserves the per-trial RNG
// draw order, so results are bit-identical to the per-trial path for a
// fixed (Seed, Workers) pair. Observability works per batch: every trial
// draws exactly k.Dims() values, so sim.rng_draws is computed, and the
// checkpointer receives each batch's win flags.
func runBatch(cfg Config, name string, k *model.BatchKernel) (Result, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return Result{}, err
	}
	r := newRun(cfg, name)
	return r.play(func(w, quota int) error {
		pcg := cfg.workerSource(w)
		sc := model.GetBatchScratch()
		defer sc.Release()
		for done := 0; done < quota; {
			b := min(batchSize, quota-done)
			won := k.PlaySrc(sc, pcg, b)
			r.record(w, sc.Wins()[:b], won)
			done += b
		}
		r.rngDraws.Add(int64(quota) * int64(k.Dims()))
		return nil
	})
}

// checkpointer serializes an observed run's convergence trace: workers
// hand it their per-trial win flags a batch at a time, and it emits one
// checkpoint each time the global trial count reaches a multiple of
// every. The lock is held across the emit so checkpoints leave in trial
// order even when several workers cross boundaries at once.
type checkpointer struct {
	o       *obs.Observer
	every   int64
	estHist *obs.Histogram

	mu           sync.Mutex
	trials, wins int64
}

func newCheckpointer(cfg Config) *checkpointer {
	every := int64(cfg.CheckpointEvery)
	if every == 0 {
		every = max(int64(cfg.Trials/defaultCheckpoints), 1)
	}
	return &checkpointer{o: cfg.Obs, every: every, estHist: cfg.Obs.Histogram("sim.estimate", 0, 1, 20)}
}

// recordBatch accounts one finished batch whose win flags are flags and
// whose win count is won. Only a batch that crosses a cadence boundary
// scans its flags, and only up to the last boundary it crosses, so each
// checkpoint carries the exact win count of the trials before it. A nil
// checkpointer (no observer) records nothing.
func (c *checkpointer) recordBatch(flags []bool, won int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	end := c.trials + int64(len(flags))
	wins, i := c.wins, 0
	for next := (c.trials/c.every + 1) * c.every; next <= end; next += c.every {
		for ; c.trials+int64(i) < next; i++ {
			if flags[i] {
				wins++
			}
		}
		c.emit(wins, next)
	}
	c.trials, c.wins = end, c.wins+int64(won)
}

// emit records one point of the convergence trace: the running estimate
// at nt trials into the sim.estimate histogram and, when the observer has
// an event sink, a checkpoint event carrying the Wilson interval.
func (c *checkpointer) emit(wins, nt int64) {
	var p stats.Proportion
	if err := p.AddN(wins, nt); err != nil {
		return
	}
	est := p.Estimate()
	c.estHist.Observe(est)
	if c.o.Events == nil {
		return
	}
	lo, hi, err := p.WilsonCI(1.96)
	if err != nil {
		return
	}
	c.o.Emit(obs.Event{
		Type: obs.EventCheckpoint,
		Name: "sim.convergence",
		Attrs: map[string]float64{
			"trials":   float64(nt),
			"wins":     float64(wins),
			"estimate": est,
			"ci_lo":    lo,
			"ci_hi":    hi,
		},
	})
}

// WinProbability estimates the winning probability P_A(δ) of the system by
// playing cfg.Trials independent rounds. Systems whose rules all implement
// model.BatchRule (threshold, oblivious-coin and interval-set rules) run
// through the allocation-free batched kernel; everything else takes the
// per-trial path with per-worker reusable buffers. Both paths draw the
// same RNG sequence, so the estimate for a fixed (Seed, Workers) pair does
// not depend on which one runs.
func WinProbability(sys *model.System, cfg Config) (Result, error) {
	if sys == nil {
		return Result{}, fmt.Errorf("sim: nil system")
	}
	if k, ok := model.NewBatchKernel(sys); ok {
		return runBatch(cfg, "win_probability", k)
	}
	return runBernoulli(cfg, "win_probability", func(int) trialFunc {
		inputs := make([]float64, sys.N())
		var out model.Outcome
		return func(rng *rand.Rand) (bool, error) {
			if err := sys.SampleInputsInto(inputs, rng); err != nil {
				return false, err
			}
			if err := sys.PlayInto(&out, inputs, rng); err != nil {
				return false, err
			}
			return out.Win, nil
		}
	})
}

// FeasibilityProbability estimates the probability that SOME assignment
// of the instance's inputs (x_i uniform on [0, π_i]) to the two bins
// keeps both within capacity — the omniscient full-information benchmark
// that upper-bounds every distributed algorithm.
func FeasibilityProbability(inst problem.Instance, cfg Config) (Result, error) {
	if err := inst.Validate(); err != nil {
		return Result{}, err
	}
	if inst.N > 30 {
		return Result{}, fmt.Errorf("sim: feasibility limited to 30 players, got %d", inst.N)
	}
	widths := inst.Widths()
	return runBernoulli(cfg, "feasibility", func(int) trialFunc {
		inputs := make([]float64, inst.N)
		return func(rng *rand.Rand) (bool, error) {
			if widths == nil {
				for i := range inputs {
					inputs[i] = rng.Float64()
				}
			} else {
				for i := range inputs {
					inputs[i] = rng.Float64() * widths[i]
				}
			}
			return model.FeasibleAssignmentExists(inputs, inst.Delta)
		}
	})
}

// LoadStats simulates the system and returns running statistics of the
// value extracted from each outcome by metric (for example the bin-0 load
// or the maximum load).
func LoadStats(sys *model.System, cfg Config, metric func(model.Outcome) float64) (stats.Running, error) {
	if sys == nil {
		return stats.Running{}, fmt.Errorf("sim: nil system")
	}
	if metric == nil {
		return stats.Running{}, fmt.Errorf("sim: nil metric")
	}
	cfg, err := cfg.validate()
	if err != nil {
		return stats.Running{}, err
	}
	root := cfg.Obs.StartSpan("sim.load_stats")
	defer root.End()
	accs := make([]stats.Running, cfg.Workers)
	errs := fanOut(cfg, func(w, quota int) error {
		rng := rand.New(cfg.workerSource(w))
		inputs := make([]float64, sys.N())
		var out model.Outcome
		for i := 0; i < quota; i++ {
			if err := sys.SampleInputsInto(inputs, rng); err != nil {
				return err
			}
			if err := sys.PlayInto(&out, inputs, rng); err != nil {
				return err
			}
			accs[w].Add(metric(out))
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			err = wrapTrialErr(err)
			cfg.Obs.EmitError("sim.trial", err)
			return stats.Running{}, err
		}
	}
	var total stats.Running
	for _, a := range accs {
		total.Merge(a)
	}
	cfg.Obs.Counter("sim.trials").Add(total.N())
	return total, nil
}

// Bernoulli estimates the success probability of an arbitrary trial
// function by playing cfg.Trials independent rounds across seeded parallel
// workers — the same deterministic fan-out that backs WinProbability and
// FeasibilityProbability, exported so higher layers (the evaluation engine,
// protocol simulators) can run custom trials without re-implementing the
// worker pool. name labels the run's root span when observability is on.
func Bernoulli(cfg Config, name string, trial func(rng *rand.Rand) (bool, error)) (Result, error) {
	if trial == nil {
		return Result{}, fmt.Errorf("sim: nil trial function")
	}
	if name == "" {
		name = "bernoulli"
	}
	return runBernoulli(cfg, name, func(int) trialFunc { return trial })
}
