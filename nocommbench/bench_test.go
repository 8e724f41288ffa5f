package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestSameSeedSameBodies(t *testing.T) {
	for name, mk := range workloads {
		if name == "hot-eval" {
			continue // its op bodies come from the pool, checked below
		}
		a, b, c := mk(7), mk(7), mk(8)
		for _, stream := range []uint64{streamOps, streamLadder} {
			for i := uint64(0); i < 50; i++ {
				ra, rb, rc := a.op(stream, i), b.op(stream, i), c.op(stream, i)
				for k := range ra {
					if !bytes.Equal(ra[k].body, rb[k].body) {
						t.Fatalf("%s op %d request %d: same seed, different bodies:\n%s\n%s", name, i, k, ra[k].body, rb[k].body)
					}
					if bytes.Equal(ra[k].body, rc[k].body) {
						t.Fatalf("%s op %d request %d: seeds 7 and 8 gave the same body", name, i, k)
					}
				}
			}
		}
	}
	for j := 0; j < hotPoolSize; j++ {
		if !bytes.Equal(mustJSON(hotPoolRequest(7, j)), mustJSON(hotPoolRequest(7, j))) {
			t.Fatalf("hot-eval pool entry %d differs for the same seed", j)
		}
	}
	if !bytes.Equal(zipfU16(zipfKeys(7, streamOps, 1000)), zipfU16(zipfKeys(7, streamOps, 1000))) {
		t.Fatal("hot-eval key sequence differs for the same seed")
	}
}

func zipfU16(ks []uint16) []byte {
	b := make([]byte, 0, 2*len(ks))
	for _, k := range ks {
		b = append(b, byte(k), byte(k>>8))
	}
	return b
}

func TestColdKeysNeverRepeat(t *testing.T) {
	seen := map[string]bool{}
	c := &coldExact{seed: 3}
	for _, stream := range []uint64{streamOps, streamLadder} {
		for i := uint64(0); i < 2000; i++ {
			body := string(c.op(stream, i)[0].body)
			if seen[body] {
				t.Fatalf("cold-exact op %d of stream %d repeats an earlier request", i, stream)
			}
			seen[body] = true
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 over 999 samples (9 beyond) was not refused")
	}
	xs = append(xs, 999)
	p, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 over 1000 samples: %v", err)
	}
	if p != 989 {
		t.Fatalf("p99 of 0..999 = %v, want 989 (nearest rank 990)", p)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// A server that answers the β* request with a wrong P: every such op must
// count as failed, with a latency beyond any limit.
func TestWrongAnswerCountsAsError(t *testing.T) {
	b := &bench{seed: 1, wl: &hotEval{seed: 1}, out: t.TempDir(), stderr: io.Discard}
	if err := b.setup(""); err != nil {
		t.Fatal(err)
	}
	defer b.st.close()
	real := b.st.srv.Handler()
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, r)
		body := bytes.Replace(rec.Body.Bytes(), []byte(`"p":0.5446311396758939`), []byte(`"p":0.5446311396758938`), 1)
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer bad.Close()
	b.st.ts.Close()
	b.st.ts = bad
	b.st.cn = nil

	w := b.window(300*time.Millisecond, nil)
	if w.ops == 0 || w.failed == 0 {
		t.Fatalf("%d ops, %d failed: the wrong β* answers were not counted", w.ops, w.failed)
	}
	if w.failed == w.ops {
		t.Fatalf("all %d ops failed; only the β* key is wrong", w.ops)
	}
	if !strings.Contains(w.firstErr.Error(), "pool entry 0:") {
		t.Fatalf("first error %v does not name the β* entry", w.firstErr)
	}
	inf := 0
	for _, l := range w.lat {
		for _, x := range l {
			if x == failedLatency {
				inf++
			}
		}
	}
	if inf != w.failed {
		t.Fatalf("%d failed ops but %d infinite latencies", w.failed, inf)
	}
}

func TestSweepCheck(t *testing.T) {
	_, sw := searchRequests(1, streamOps, 0)
	sw.Points, sw.ChunkSize = 4, 2
	ok := `{"n":10,"kind":"oblivious","points":4,"chunk":2}
{"start":0,"points":[{"param":0,"p":0.25},{"param":0.3,"p":0.5}]}
{"start":2,"points":[{"param":0.6,"p":0.5},{"param":1,"p":0.25}]}
`
	if err := checkSweep(sw, []byte(ok)); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	for name, body := range map[string]string{
		"truncated":  strings.Join(strings.SplitAfter(ok, "\n")[:2], ""),
		"error line": strings.Join(strings.SplitAfter(ok, "\n")[:2], "") + `{"error":{"code":"deadline_exceeded"}}` + "\n",
		"asymmetric": strings.Replace(ok, `"param":1,"p":0.25`, `"param":1,"p":0.26`, 1),
		"above one":  strings.Replace(ok, `"p":0.5}]}`, `"p":1.5}]}`, 1),
	} {
		if err := checkSweep(sw, []byte(body)); err == nil {
			t.Errorf("%s stream accepted", name)
		}
	}
}

func TestSampledCheck(t *testing.T) {
	mc, _ := mcRequests(1, streamOps, 0)
	reply := func(p, se float64) []byte {
		return mustJSON(serve.EvalResponse{P: p, StdErr: se, Backend: "mc", Trials: mcTrials})
	}
	exact, err := exactSymmetric(mc)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSampled(mc, reply(exact+4e-3, 1e-3)); err != nil {
		t.Fatalf("4σ estimate rejected: %v", err)
	}
	if err := checkSampled(mc, reply(exact+6e-3, 1e-3)); err == nil {
		t.Fatal("6σ estimate accepted")
	}
}

// BENCHMARK.json must list exactly the workloads and metrics this package
// runs and reports, and e2e must report exactly the end-to-end ones.
func TestBenchmarkJSONMatchesReported(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	var e2eDoc, layerDoc []metricSpec
	for _, m := range doc.EndToEnd {
		e2eDoc = append(e2eDoc, metricSpec{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range doc.PerLayer {
		layerDoc = append(layerDoc, metricSpec{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2eDoc, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end = %v, want %v", e2eDoc, e2eMetrics)
	}
	if !reflect.DeepEqual(layerDoc, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer = %v, want %v", layerDoc, layerMetrics)
	}

	// A synthetic window: 100 ops a slice, each taking 50 µs of wall time
	// and 90 µs of process CPU time, 9 ms of CPU time a slice.
	var w windowStats
	for k := 0; k < slices; k++ {
		for i := 0; i < 100; i++ {
			w.lat[k] = append(w.lat[k], 50_000)
			w.cpuLat[k] = append(w.cpuLat[k], 90_000)
		}
		w.ops += 100
		w.marks[k+1] = usage{wall: w.marks[k].wall.Add(10 * time.Millisecond), cpu: w.marks[k].cpu + 9*time.Millisecond}
	}
	w.wall, w.cpu = 100*time.Millisecond, 90*time.Millisecond
	m := map[string]metric{}
	if err := e2e(io.Discard, m, w, []float64{0.5, 0.25, 1}); err != nil {
		t.Fatal(err)
	}
	if err := checkEmitted(m, false); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"setup_s": 0.5, "ops_per_cpu_s": 100 / 0.009, "latency_p90_cpu_us": 90} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	m["extra"] = metric{Value: 1, Unit: "s"}
	if err := checkEmitted(m, false); err == nil {
		t.Error("an unlisted metric passed checkEmitted")
	}
}
