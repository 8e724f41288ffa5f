package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// The traced run's layer ladder. For a fixed sample of the workload's
// ops the benchmark calls the rungs in order, from outside the program:
//
//	roundtrip  loopback POST of the op's requests
//	handler    Server.Handler().ServeHTTP into a recorder (no TCP)
//	engine     the engine call the handler makes
//	backend    the direct backend call on the same input (hot-eval: the
//	           store lookup, since a hit computes nothing)
//	kernel     the table or lane primitives under the backend
//
// Each call is wrapped in a span recorded in memory. Every rung of an op
// runs on the same input, and a rung's self time is the median over the
// ops of its time minus the time of the rung below; the run reports how
// far the self times' sum lies from serve.roundtrip_us
// (ladder.sum_gap_pct). The roundtrip goes to the run's stack; the
// handler, engine and uninstrumented-handler rungs each get a stack of
// their own, built like it, so an op meant to miss misses on every rung.

const (
	rungRoundtrip  = "roundtrip"
	rungHandler    = "handler"
	rungHandlerNil = "handler.nil_obs"
	rungJSON       = "json"
	rungEngine     = "engine"
	rungBackend    = "backend"
	rungKernel     = "kernel"
	rungHit        = "engine.hit"
	rungMissEngine = "engine.miss"
	rungMissDirect = "backend.direct"
)

// span is one timed call: times are nanoseconds since the run's trace
// origin; Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil tracer records nothing, so the
// untraced window calls the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int, op uint64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
}

// fork returns a tracer for one client goroutine, on the same clock.
func (t *tracer) fork() *tracer { return &tracer{t0: t.t0} }

// join appends a forked tracer's spans, renumbering their ids.
func (t *tracer) join(f *tracer) {
	off := len(t.spans)
	for _, s := range f.spans {
		s.ID += off
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// dump writes the spans as JSON lines.
func dump(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// ladder times one workload's rungs op by op.
type ladder struct {
	b       *bench
	tr      *tracer
	hst     *stack // handler rung
	est     *stack // engine rung and resident-key hits
	nst     *stack // handler rung without Obs, for obs.overhead_us
	opSpan  int
	opID    uint64
	cur     map[string]float64   // this op's µs per rung
	samples map[string][]float64 // per-op µs per rung
	last    float64              // µs of the latest timed call
}

// op starts ladder op j, closing the previous one.
func (l *ladder) op(j uint64) {
	l.flush()
	l.opID = j
	l.opSpan = l.tr.begin("ladder.op", -1, j)
	l.cur = map[string]float64{}
}

func (l *ladder) flush() {
	if l.cur == nil {
		return
	}
	l.tr.end(l.opSpan)
	for r, v := range l.cur {
		l.samples[r] = append(l.samples[r], v)
	}
	l.cur = nil
}

// timed runs fn as one call of the rung, adding its time to the op's.
func (l *ladder) timed(rung string, fn func() error) error {
	sp := l.tr.begin(rung, l.opSpan, l.opID)
	t0 := time.Now()
	err := fn()
	l.last = float64(time.Since(t0).Nanoseconds()) / 1e3
	l.tr.end(sp)
	l.cur[rung] += l.last
	return err
}

// record adds a value computed rather than timed to the op's rung.
func (l *ladder) record(rung string, us float64) { l.cur[rung] += us }

func (l *ladder) post(rq request) (response, error) {
	var resp response
	err := l.timed(rungRoundtrip, func() (err error) {
		resp, err = l.b.st.post(rq)
		return err
	})
	return resp, err
}

// handler times the request through the handler rung's server and, for
// obs.overhead_us, through the uninstrumented twin's.
func (l *ladder) handler(rq request) error {
	if err := l.timed(rungHandler, func() error {
		_, err := l.hst.serveDirect(rq)
		return err
	}); err != nil {
		return err
	}
	return l.timed(rungHandlerNil, func() error {
		_, err := l.nst.serveDirect(rq)
		return err
	})
}

// jsonCodec times the serve layer's JSON work for one request: decoding
// its body into the request type and encoding the reply values.
func (l *ladder) jsonCodec(body []byte, into any, replies ...any) error {
	return l.timed(rungJSON, func() error {
		if err := json.Unmarshal(body, into); err != nil {
			return err
		}
		for _, r := range replies {
			if _, err := json.Marshal(r); err != nil {
				return err
			}
		}
		return nil
	})
}

func (l *ladder) engineEval(rung string, inst engine.Instance, rule engine.Rule, backend engine.Backend, cfg sim.Config) (engine.Result, error) {
	var res engine.Result
	err := l.timed(rung, func() (err error) {
		ctx, cancel := requestCtx()
		defer cancel()
		res, err = l.est.eng.EvaluateWithCtx(ctx, inst, rule, backend, cfg)
		return err
	})
	return res, err
}

// hit times an evaluation of a key the op made resident.
func (l *ladder) hit(inst engine.Instance, rule engine.Rule, backend engine.Backend, cfg sim.Config) error {
	res, err := l.engineEval(rungHit, inst, rule, backend, cfg)
	if err == nil && !res.Cached {
		err = fmt.Errorf("%s: resident key missed the cache", rule.Name())
	}
	return err
}

// directBackend runs what the engine's compute step runs for a resolved
// backend, without the engine.
func directBackend(inst engine.Instance, rule engine.Rule, backend engine.Backend, cfg sim.Config, o *obs.Observer) (float64, error) {
	switch backend {
	case engine.Exact:
		ro, ok := rule.(engine.ExactOpts)
		if !ok {
			return 0, fmt.Errorf("%s has no sharded exact path", rule.Name())
		}
		return ro.ExactWinProbabilityOpts(inst, exactWorkers(), o)
	case engine.MonteCarlo, engine.MonteCarloQMC:
		sys, err := rule.System(inst)
		if err != nil {
			return 0, err
		}
		run := sim.WinProbability
		if backend == engine.MonteCarloQMC {
			run = sim.WinProbabilityQMC
		}
		res, err := run(sys, cfg)
		return res.P, err
	}
	return 0, fmt.Errorf("backend %v", backend)
}

// exactWorkers is the engine's default exact sharding: GOMAXPROCS,
// clamped to the 64-chunk grid.
func exactWorkers() int {
	w, _ := sim.WorkerCount(0, 64)
	return w
}

// storeKey rebuilds the engine's cache key of an exact evaluation. If the
// engine's key format changes, lookup fails loudly instead of timing a
// miss.
func storeKey(inst engine.Instance, rule engine.Rule) string {
	return inst.Key() + "|r=" + rule.Fingerprint() + "|b=" + engine.Exact.String()
}

// runLadder runs the workload's ladder and the per-layer primitives and
// fills the per-layer metrics. It returns ladder.sum_gap_pct.
func runLadder(b *bench, tr *tracer, m map[string]metric) (float64, error) {
	l := &ladder{b: b, tr: tr, samples: map[string][]float64{}}
	dir := func(name string) string {
		if !b.wl.diskTier() {
			return ""
		}
		return filepath.Join(b.out, name)
	}
	for _, s := range []struct {
		st           **stack
		dir          string
		instrumented bool
	}{{&l.hst, "ladder-handler", true}, {&l.est, "ladder-engine", true}, {&l.nst, "ladder-nil-obs", false}} {
		st, err := newStack(dir(s.dir), s.instrumented)
		if err != nil {
			return 0, err
		}
		defer st.close()
		*s.st = st
	}
	if w, ok := b.wl.(interface{ warmLadder(*ladder) error }); ok {
		if err := w.warmLadder(l); err != nil {
			return 0, err
		}
	}
	n := b.wl.ladderSamples()
	for j := 0; j < n; j++ {
		l.op(uint64(j))
		if err := b.wl.ladder(l, uint64(j)); err != nil {
			return 0, fmt.Errorf("%s ladder op %d: %w", b.wl.name(), j, err)
		}
	}
	l.flush()
	for _, r := range []string{rungRoundtrip, rungHandler, rungHandlerNil, rungJSON, rungEngine, rungBackend, rungKernel, rungHit} {
		if len(l.samples[r]) != n {
			return 0, fmt.Errorf("ladder rung %s has %d samples, want %d", r, len(l.samples[r]), n)
		}
	}
	// Self times are medians of per-op differences: every rung of an op
	// ran on the same input, so pairing cancels the input's own cost.
	diff := func(hi, lo string) []float64 {
		d := make([]float64, n)
		for j := range d {
			d[j] = l.samples[hi][j]
			if lo != "" {
				d[j] -= l.samples[lo][j]
			}
		}
		return d
	}
	us := func(name string, xs []float64) float64 {
		v := median(xs)
		m[name] = metric{Value: v, Unit: "us", samples: n}
		return v
	}
	rt := us("serve.roundtrip_us", diff(rungRoundtrip, ""))
	us("serve.handler_us", diff(rungHandler, ""))
	us("serve.json_us", diff(rungJSON, ""))
	us("engine.hit_us", diff(rungHit, ""))
	us("obs.overhead_us", diff(rungHandler, rungHandlerNil))
	us("serve.transport_us", diff(rungRoundtrip, rungHandler))
	us("serve.self_us", diff(rungHandler, rungEngine))
	sum := 0.0
	for _, r := range []struct{ name, hi, lo string }{
		{"ladder.transport", rungRoundtrip, rungHandler},
		{"ladder.serve", rungHandler, rungEngine},
		{"ladder.engine", rungEngine, rungBackend},
		{"ladder.backend", rungBackend, rungKernel},
		{"ladder.kernel", rungKernel, ""},
	} {
		self := median(diff(r.hi, r.lo))
		m[r.name+".share"] = metric{Value: self / rt, Unit: "ratio", samples: n}
		sum += self
	}
	gap := 100 * (sum - rt) / rt
	m["ladder.sum_gap_pct"] = metric{Value: gap, Unit: "%", samples: n}
	fmt.Fprintf(b.stdout, "ladder %s: the rungs' median self times sum to %.3f us against a median roundtrip of %.3f us (%+.2f%%)\n",
		b.wl.name(), sum, rt, gap)
	return gap, primitives(l, m)
}

// windowLayerMetrics fills the per-layer metrics that come from the
// untraced window: registry and runtime diffs.
func windowLayerMetrics(m map[string]metric, w windowStats, d counterDiff, ms0, ms1 *runtime.MemStats) {
	ops := float64(w.ops)
	per := func(name, unit string, x float64) { m[name] = metric{Value: x, Unit: unit, samples: w.ops} }
	hits, misses := d["engine.cache.hits"], d["engine.cache.misses"]
	per("engine.cache_hit_ratio", "ratio", float64(hits)/float64(max(hits+misses, 1)))
	per("serve.response_bytes", "B", float64(w.respBytes)/ops)
	per("store.disk_writes_per_op", "count", float64(d["store.disk.writes"])/ops)
	per("exact.subsets_per_op", "count", float64(d["exact.subsets"])/ops)
	per("sim.trials_per_op", "count", float64(d["sim.trials"])/ops)
	per("runtime.allocs_per_op", "count", float64(ms1.Mallocs-ms0.Mallocs)/ops)
	per("runtime.alloc_bytes_per_op", "B", float64(ms1.TotalAlloc-ms0.TotalAlloc)/ops)
	per("runtime.gc_cycles_per_kop", "count", float64(ms1.NumGC-ms0.NumGC)*1000/ops)
	m["runtime.peak_rss_mb"] = metric{Value: w.rssMiB, Unit: "MiB", samples: 1}
}
