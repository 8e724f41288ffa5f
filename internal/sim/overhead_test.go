//go:build unix && !race

package sim

import (
	"sort"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// processCPU returns the CPU time the test process has used so far. Unlike
// wall time it does not grow while other processes hold the CPU, so the
// ratio below stays meaningful while other packages' tests run.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestObservedOverheadLive times the Monte-Carlo run the service's
// mc-sample requests make — n=10 threshold, 200k trials, one worker —
// alternately with the service's metrics-only observer and with none, and
// fails when the median observed/plain CPU-time ratio exceeds 1.25. It
// measures the code under test on the machine running it, so an observed
// path that leaves the lane kernel fails here rather than in a snapshot.
// The race detector's instrumentation would swamp the ratio, so race
// builds leave the test out.
func TestObservedOverheadLive(t *testing.T) {
	if testing.Short() {
		t.Skip("timing ratio needs a full run")
	}
	sys := thresholdSystem(t, 10, 0.6, 10.0/3)
	o := obs.New(obs.NewRegistry(), nil)
	timed := func(o *obs.Observer, seed uint64) time.Duration {
		start := processCPU(t)
		if _, err := WinProbability(sys, Config{Trials: 200_000, Workers: 1, Seed: seed, Obs: o}); err != nil {
			t.Fatal(err)
		}
		return processCPU(t) - start
	}
	timed(nil, 1) // warm the scratch pool and the observer's metrics
	timed(o, 1)
	ratios := make([]float64, 5)
	for i := range ratios {
		seed := uint64(i + 2)
		var plain, observed time.Duration
		if i%2 == 0 {
			plain, observed = timed(nil, seed), timed(o, seed)
		} else {
			observed, plain = timed(o, seed), timed(nil, seed)
		}
		ratios[i] = observed.Seconds() / plain.Seconds()
	}
	sort.Float64s(ratios)
	if med := ratios[len(ratios)/2]; med > 1.25 {
		t.Errorf("observed/plain CPU-time ratio median %.2f (all %.2f), want <= 1.25", med, ratios)
	}
}
