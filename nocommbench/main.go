// Command nocommbench is the end-to-end benchmark of the nocomm
// evaluation service. It starts the real stack in-process (serve.New
// over engine.New with a live obs registry and no sink, as `nocomm
// serve` runs by default) behind a loopback HTTP listener, drives it with
// closed-loop clients on one of three workloads, checks every answer,
// and prints each metric by name with its unit and sample count. The last
// line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run adds a traced window and a layer ladder and reports the per-layer
// metrics instead. Usage:
//
//	nocommbench -workload hot-eval -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count: one connection per core of
// the 2-vCPU reference box. The callers this models (CLI scripts, the
// experiment harness, notebooks) each wait for their reply.
const clients = 2

// setupRepeats is how many times a run builds its stack; setup_s is the
// median, and the last stack built serves the run.
const setupRepeats = 9

// maxWindowSpans caps the traced window's spans in the span dump; the
// ladder's spans are always written in full.
const maxWindowSpans = 1000

// workload is one traffic mix. Ops are numbered per stream; op i's
// requests are a pure function of (seed, stream, i).
type workload interface {
	// name is the workload's fixed name.
	name() string
	// diskTier reports whether the server gets a disk-tier cache.
	diskTier() bool
	// setup seeds the freshly built stack's caches and generates the
	// run's fixed inputs; it is part of setup_s.
	setup(b *bench) error
	// op returns op i's requests.
	op(stream, i uint64) []request
	// check validates op i's responses after the op is timed. It may keep
	// a sample of ops for verify.
	check(i uint64, resps []response) error
	// verify runs the checks too slow to run inside the loop, after the
	// measured window. It returns the extra requests it sent and the
	// number of failed checks.
	verify(b *bench) (extra, failed int, err error)
	// premise asserts from the registry diff that the window exercised
	// the layer the workload exists for.
	premise(d counterDiff, ops int) error
	// ladderSamples is the number of ops the traced ladder times.
	ladderSamples() int
	// ladder times ladder op j rung by rung (see ladder.go).
	ladder(l *ladder, j uint64) error
}

var workloads = map[string]func(seed uint64) workload{
	"hot-eval":   func(seed uint64) workload { return &hotEval{seed: seed} },
	"cold-exact": func(seed uint64) workload { return &coldExact{seed: seed} },
	"mc-sample":  func(seed uint64) workload { return &mcSample{seed: seed} },
}

// bench is one benchmark run: a workload on its stack.
type bench struct {
	seed   uint64
	wl     workload
	st     *stack
	out    string // scratch directory of this run
	stdout io.Writer
	stderr io.Writer
	next   atomic.Uint64 // next streamOps op index
	latCap int           // per-client latency buffer capacity
}

// counterDiff is the change of the registry's counters over a window.
type counterDiff map[string]int64

func diffCounters(before, after map[string]int64) counterDiff {
	d := counterDiff{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// metric is one reported figure.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nocommbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hot-eval, cold-exact or mc-sample")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "nocommbench"), "scratch directory for disk tiers and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "nocommbench: bad flags: workload %q, seconds %v, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	res, err := measure(mk(*seed), *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "nocommbench: %v\n", err)
		return 1
	}
	enc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "nocommbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", enc)
	return 0
}

// measure runs one workload end to end and returns its result. Errors are
// set-up failures: no result is printed for them.
func measure(wl workload, seed uint64, dur time.Duration, traced bool, out string, stdout, stderr io.Writer) (result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return result{}, fmt.Errorf("creating %s: %w", out, err)
	}
	runDir, err := os.MkdirTemp(out, wl.name()+"-")
	if err != nil {
		return result{}, fmt.Errorf("creating scratch directory: %w", err)
	}
	defer os.RemoveAll(runDir)

	b := &bench{seed: seed, wl: wl, out: runDir, stdout: stdout, stderr: stderr}
	setups := make([]float64, 0, setupRepeats)
	for k := 0; k < setupRepeats; k++ {
		if b.st != nil {
			b.st.close()
		}
		// Each set-up starts from a collected heap, so one's garbage does
		// not tax the next.
		runtime.GC()
		c0 := processCPU()
		if err := b.setup(filepath.Join(runDir, "store-"+strconv.Itoa(k))); err != nil {
			return result{}, err
		}
		setups = append(setups, (processCPU() - c0).Seconds())
	}
	defer b.st.close()

	// A short unmeasured warmup lets connections open and the GC pace
	// itself before the window. Its rate sizes the latency buffers, so
	// the window's own bookkeeping does not grow the heap as it runs.
	warm := b.window(min(time.Second, dur/10), nil)
	b.latCap = int(1.5*float64(warm.ops)/warm.wall.Seconds()*dur.Seconds()/clients) + 1024

	res := result{Correct: true, Metrics: map[string]metric{}}
	untracedDur := dur
	if traced {
		untracedDur = dur / 2
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	c0 := b.st.counters()
	runtime.ReadMemStats(&ms0)
	w := b.window(untracedDur, nil)
	runtime.ReadMemStats(&ms1)
	diff := diffCounters(c0, b.st.counters())

	res.Attempted, res.Failed = w.ops, w.failed
	if w.firstErr != nil {
		fmt.Fprintf(stderr, "nocommbench: %s: %d failed ops, first: %v\n", wl.name(), w.failed, w.firstErr)
	}
	if err := wl.premise(diff, w.ops); err != nil {
		fmt.Fprintf(stderr, "nocommbench: %s: premise failed: %v\n", wl.name(), err)
		res.Correct = false
	}
	extra, failed, err := wl.verify(b)
	res.Attempted += extra
	res.Failed += failed
	if err != nil {
		fmt.Fprintf(stderr, "nocommbench: %s: %d failed checks, first: %v\n", wl.name(), failed, err)
	}
	fmt.Fprintf(stdout, "workload %s seed %d clients %d closed-loop, window %.1fs, ops %d, failed %d, error_ratio %g\n",
		wl.name(), seed, clients, w.wall.Seconds(), res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))

	if !traced {
		if err := e2e(stdout, res.Metrics, w, setups); err != nil {
			return result{}, err
		}
	} else {
		// The traced half alternates untraced and traced parts, so the
		// host's drift over the half falls on both alike.
		tw := &tracer{t0: time.Now()}
		var plain, spans windowStats
		for k := 0; k < 2*overheadParts; k++ {
			var tr *tracer
			if k%2 == 1 {
				tr = tw
			}
			p := b.window((dur-untracedDur)/(2*overheadParts), tr)
			if p.failed > 0 {
				fmt.Fprintf(stderr, "nocommbench: %s: overhead part %d: %d failed ops, first: %v\n", wl.name(), k, p.failed, p.firstErr)
			}
			res.Attempted += p.ops
			res.Failed += p.failed
			if tr == nil {
				plain.add(p)
			} else {
				spans.add(p)
			}
		}
		overhead := (plain.opsPerCPUSecond() - spans.opsPerCPUSecond()) / plain.opsPerCPUSecond() * 100
		windowLayerMetrics(res.Metrics, w, diff, &ms0, &ms1)
		res.Metrics["bench.trace_overhead_pct"] = metric{Value: overhead, Unit: "%", samples: plain.ops + spans.ops}
		tl := tw.fork()
		gap, err := runLadder(b, tl, res.Metrics)
		if err != nil {
			return result{}, err
		}
		// hot-eval's rungs are all cheap and all on the request's path, so
		// their self times must account for the roundtrip.
		if tol := max(math.Abs(overhead), ladderGapFloor); wl.name() == "hot-eval" && math.Abs(gap) > tol {
			fmt.Fprintf(stderr, "nocommbench: %s: the rungs' self times miss the roundtrip by %.2f%%, more than %.2f%%\n", wl.name(), gap, tol)
			res.Correct = false
		}
		// All ladder spans, then the traced parts' first spans.
		all := &tracer{}
		all.join(tl)
		all.join(&tracer{spans: tw.spans[:min(len(tw.spans), maxWindowSpans)]})
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name(), seed))
		if err := dump(path, all.spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(all.spans), path)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	printMetrics(stdout, res.Metrics)
	if err := checkEmitted(res.Metrics, traced); err != nil {
		return result{}, err
	}
	return res, nil
}

// overheadParts is the number of untraced and of traced parts the traced
// half of a --trace 1 window alternates.
const overheadParts = 3

// ladderGapFloor is the least tolerance, in percent of the roundtrip, of
// hot-eval's rung sum check: the medians of per-op differences telescope
// only up to the spread of the per-op times.
const ladderGapFloor = 5.0

// setup builds a fresh stack and lets the workload seed it.
func (b *bench) setup(dir string) error {
	if !b.wl.diskTier() {
		dir = ""
	}
	st, err := newStack(dir, true)
	if err != nil {
		return err
	}
	b.st = st
	if err := b.wl.setup(b); err != nil {
		return fmt.Errorf("%s setup: %w", b.wl.name(), err)
	}
	return nil
}

// slices is the number of equal time slices a window is cut into; each
// op is kept by the slice in which it completed, and the clocks are read
// at every slice boundary. Throughput and p50 are computed per slice and
// the median over the slices reported, so a few seconds of outside load
// move neither.
const slices = 10

// windowStats is what one closed-loop window measured.
type windowStats struct {
	ops, failed int
	wall        time.Duration
	width       time.Duration // of each slice; the last runs on to wall
	// lat and cpuLat hold each op's latency in ns on the wall clock and on
	// the process CPU clock, by the slice in which the op completed;
	// failedLatency marks a failed op. Four bytes a figure keep the
	// window's own bookkeeping small beside the server it shares the heap
	// with.
	lat, cpuLat [slices][]uint32
	// marks are the clocks at the start of each slice and at the end;
	// cpu is the process CPU time between the first and the last.
	marks     [slices + 1]usage
	cpu       time.Duration
	respBytes int64
	rssMiB    float64 // peak resident set when the window ended, NaN if unreadable
	firstErr  error
}

// add sums another window's op counts and clock advances into w.
func (w *windowStats) add(o windowStats) {
	w.ops += o.ops
	w.failed += o.failed
	w.wall += o.wall
	w.cpu += o.cpu
}

// opsPerCPUSecond is the window's completed ops per second of process
// CPU time.
func (w *windowStats) opsPerCPUSecond() float64 {
	return float64(w.ops) / w.cpu.Seconds()
}

// window drives the stack with closed-loop clients for d and waits for
// every client's last op. With a tracer, each op and request is recorded
// as a span.
func (b *bench) window(d time.Duration, tr *tracer) windowStats {
	start := time.Now()
	w := windowStats{width: d / slices}
	per := make([]windowStats, clients)
	for c := range per {
		per[c].width = w.width
		for k := range per[c].lat {
			per[c].lat[k] = make([]uint32, 0, b.latCap/slices)
			per[c].cpuLat[k] = make([]uint32, 0, b.latCap/slices)
		}
	}
	logs := make([]*tracer, clients)
	var wg sync.WaitGroup
	w.marks[0] = readUsage()
	// The slice boundaries' clocks are read by a goroutine of their own,
	// which sleeps in between; the last boundary comes before the window
	// ends.
	sampled := make(chan struct{})
	go func() {
		for k := 1; k < slices; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * w.width)))
			w.marks[k] = readUsage()
		}
		close(sampled)
	}()
	for c := 0; c < clients; c++ {
		if tr != nil {
			logs[c] = tr.fork()
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b.client(start, start.Add(d), &per[c], logs[c])
		}(c)
	}
	wg.Wait()
	<-sampled
	w.marks[slices] = readUsage()
	w.wall = time.Since(start)
	w.cpu = w.marks[slices].cpu - w.marks[0].cpu
	w.rssMiB = peakRSSMiB()
	for c := range per {
		w.ops += per[c].ops
		w.failed += per[c].failed
		w.respBytes += per[c].respBytes
		for k := range w.lat {
			w.lat[k] = append(w.lat[k], per[c].lat[k]...)
			w.cpuLat[k] = append(w.cpuLat[k], per[c].cpuLat[k]...)
		}
		if w.firstErr == nil {
			w.firstErr = per[c].firstErr
		}
		if tr != nil {
			tr.join(logs[c])
		}
	}
	return w
}

// client is one closed-loop caller on a connection of its own: it sends
// an op's requests one after another, waits for each reply, and only then
// starts the next op.
func (b *bench) client(start, deadline time.Time, ws *windowStats, tr *tracer) {
	var cn *conn
	defer func() {
		if cn != nil {
			cn.close()
		}
	}()
	var bufs [][]byte // reply buffers, one per request of an op, reused
	var resps []response
	for time.Now().Before(deadline) {
		i := b.next.Add(1) - 1
		reqs := b.wl.op(streamOps, i)
		for len(bufs) < len(reqs) {
			bufs = append(bufs, nil)
		}
		resps = resps[:0]
		opSpan := tr.begin("op", -1, i)
		c0 := processCPU()
		t0 := time.Now()
		var err error
		if cn == nil {
			cn, err = b.st.dial()
		}
		for k := 0; err == nil && k < len(reqs); k++ {
			sp := tr.begin("http"+reqs[k].path, opSpan, i)
			var status int
			status, bufs[k], err = cn.post(reqs[k].path, reqs[k].body, bufs[k])
			tr.end(sp)
			ws.respBytes += int64(len(bufs[k]))
			if err != nil {
				cn.close()
				cn = nil // the stream's state is unknown: redial
				break
			}
			var r response
			r, err = checkStatus(reqs[k], response{status: status, body: bufs[k]})
			resps = append(resps, r)
		}
		done := time.Now()
		cpu := processCPU() - c0
		lat, cpuLat := uint32(min(done.Sub(t0), failedLatency-1)), uint32(min(cpu, failedLatency-1))
		tr.end(opSpan)
		if err == nil {
			err = b.wl.check(i, resps)
		}
		ws.ops++
		if err != nil {
			lat, cpuLat = failedLatency, failedLatency
			ws.failed++
			if ws.firstErr == nil {
				ws.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
		}
		k := min(int(done.Sub(start)/ws.width), slices-1)
		ws.lat[k] = append(ws.lat[k], lat)
		ws.cpuLat[k] = append(ws.cpuLat[k], cpuLat)
	}
}

// failedLatency marks a failed op's latency: a failed op misses every
// latency limit, so it reads as +Inf.
const failedLatency = math.MaxUint32

// micros converts recorded latencies to µs, a failed op to +Inf.
func micros(l []uint32) []float64 {
	xs := make([]float64, len(l))
	for i, x := range l {
		xs[i] = float64(x) / 1e3
		if x == failedLatency {
			xs[i] = math.Inf(1)
		}
	}
	return xs
}

// e2e fills the end-to-end metrics from the untraced window. They are
// taken on the process CPU clock (see usage.go); the wall-clock figures,
// which follow the hypervisor's steal, are printed beside them.
func e2e(out io.Writer, m map[string]metric, w windowStats, setups []float64) error {
	if w.ops == 0 {
		return errors.New("no op completed in the window")
	}
	var all, allCPU []float64
	rate, cpuRate := make([]float64, slices), make([]float64, slices)
	p50, cpuP50 := make([]float64, slices), make([]float64, slices)
	for k := range w.lat {
		xs, cs := micros(w.lat[k]), micros(w.cpuLat[k])
		all, allCPU = append(all, xs...), append(allCPU, cs...)
		u := w.marks[k+1].sub(w.marks[k])
		if u.cpu <= 0 {
			return errNoCPU
		}
		rate[k] = float64(len(xs)) / u.wall.Seconds()
		cpuRate[k] = float64(len(xs)) / u.cpu.Seconds()
		p50[k], cpuP50[k] = math.Inf(1), math.Inf(1) // no op finished in this slice
		if len(xs) > 0 {
			p50[k], cpuP50[k] = median(xs), median(cs)
		}
	}
	p90, err := percentile(append([]float64(nil), allCPU...), 0.9)
	if err != nil {
		return fmt.Errorf("latency_p90_cpu_us: %w (lengthen the run)", err)
	}
	m["setup_s"] = metric{Value: median(setups), Unit: "s", samples: len(setups)}
	m["ops_per_cpu_s"] = metric{Value: median(cpuRate), Unit: "1/s", samples: w.ops}
	m["latency_p90_cpu_us"] = metric{Value: p90, Unit: "us", samples: w.ops}

	all0 := w.marks[slices].sub(w.marks[0])
	fmt.Fprintf(out, "cpu clock: latency_p50_cpu_us %.6g (slices %s), cpu per op %.6g us, of which system %.6g us\n",
		median(cpuP50), spread(cpuP50), w.cpu.Seconds()*1e6/float64(w.ops), all0.sys.Seconds()*1e6/float64(w.ops))
	fmt.Fprintf(out, "wall clock (host steal %.1f%%): ops_per_s %.6g, latency_p50_us %.6g (slices %s)", 100*all0.stealShare(), median(rate), median(p50), spread(p50))
	for _, t := range []struct {
		name string
		xs   []float64
	}{{"latency_p99_us", all}, {"latency_p99_cpu_us", allCPU}} {
		if v, err := percentile(t.xs, 0.99); err == nil {
			fmt.Fprintf(out, ", %s %.6g", t.name, v)
		} else {
			fmt.Fprintf(out, ", %s refused: %v", t.name, err)
		}
	}
	fmt.Fprintf(out, ", samples %d, peak_rss_mb %.6g\n", w.ops, w.rssMiB)
	return nil
}

// spread renders the range of per-slice values, sorting them.
func spread(xs []float64) string {
	sort.Float64s(xs)
	return fmt.Sprintf("%.6g..%.6g", xs[0], xs[len(xs)-1])
}

// peakRSSMiB reads the process's peak resident set (VmHWM), or NaN.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "metric %-30s %16.6g %-6s samples=%d\n", name, m[name].Value, m[name].Unit, m[name].samples)
	}
}
