package sim

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/response"
)

// noBatch hides a rule's BatchRule implementation so a test can force the
// per-trial fallback path through the same engine entry point.
type noBatch struct{ r model.LocalRule }

func (nb noBatch) Decide(x float64, rng *rand.Rand) (model.Bin, error) { return nb.r.Decide(x, rng) }

// goldenSystems builds the four reference systems used by the
// bit-identity tests: uniform threshold, uniform oblivious, an
// interval-union response set, and a mixed-rule system.
func goldenSystems(t *testing.T) []struct {
	name string
	sys  *model.System
} {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	thr, err := model.NewThresholdRule(0.622)
	must(err)
	thrSys, err := model.UniformSystem(3, thr, 1)
	must(err)

	obl, err := model.NewObliviousRule(0.37)
	must(err)
	oblSys, err := model.UniformSystem(3, obl, 1)
	must(err)

	band, err := response.NewIntervalSet([]response.Interval{{Lo: 0.2, Hi: 0.45}, {Lo: 0.6, Hi: 0.8}})
	must(err)
	bandRule, err := band.Rule("band")
	must(err)
	bandSys, err := model.UniformSystem(4, bandRule, 4.0/3)
	must(err)

	thr2, err := model.NewThresholdRule(0.31)
	must(err)
	mixedSys, err := model.NewSystem([]model.LocalRule{thr, obl, bandRule, thr2}, 1.2)
	must(err)

	return []struct {
		name string
		sys  *model.System
	}{
		{"threshold", thrSys},
		{"oblivious", oblSys},
		{"interval", bandSys},
		{"mixed", mixedSys},
	}
}

// unbatch rebuilds a system with every rule wrapped in noBatch, forcing
// WinProbability onto the per-trial fallback.
func unbatch(t *testing.T, sys *model.System) *model.System {
	t.Helper()
	rules := make([]model.LocalRule, sys.N())
	for i := range rules {
		r, err := sys.Rule(i)
		if err != nil {
			t.Fatal(err)
		}
		rules[i] = noBatch{r}
	}
	wrapped, err := model.NewSystem(rules, sys.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	return wrapped
}

// goldenWins holds win counts captured from the pre-batch per-trial
// engine at Trials=20000, Seed=99, for Workers=1 and Workers=4. The
// batched kernel must reproduce them exactly: any change here means the
// RNG draw order (and with it every published estimate) has shifted.
var goldenWins = map[string]map[int]int64{
	"threshold": {1: 10845, 4: 10828},
	"oblivious": {1: 7811, 4: 7883},
	"interval":  {1: 8367, 4: 8368},
	"mixed":     {1: 6316, 4: 6373},
}

// TestBatchedWinProbabilityMatchesGolden pins the batched engine to win
// counts recorded from the seed (pre-batch) engine for fixed
// (Seed, Workers) pairs.
func TestBatchedWinProbabilityMatchesGolden(t *testing.T) {
	for _, tc := range goldenSystems(t) {
		for _, w := range []int{1, 4} {
			res, err := WinProbability(tc.sys, Config{Trials: 20000, Workers: w, Seed: 99})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			if want := goldenWins[tc.name][w]; res.Wins != want {
				t.Errorf("%s workers=%d: batched wins = %d, golden %d", tc.name, w, res.Wins, want)
			}
		}
	}
}

// TestBatchedMatchesForcedPerTrial runs every golden system through both
// engine paths — batched (rules implement model.BatchRule) and the
// per-trial fallback (rules wrapped to hide it) — each with and without an
// observer, and requires identical results, including the floating-point
// summaries.
func TestBatchedMatchesForcedPerTrial(t *testing.T) {
	for _, tc := range goldenSystems(t) {
		fallback := unbatch(t, tc.sys)
		if _, ok := model.NewBatchKernel(tc.sys); !ok {
			t.Fatalf("%s: expected the original system to be batchable", tc.name)
		}
		if _, ok := model.NewBatchKernel(fallback); ok {
			t.Fatalf("%s: wrapped system must not be batchable", tc.name)
		}
		for _, w := range []int{1, 3, 4} {
			cfg := Config{Trials: 20000, Workers: w, Seed: 99}
			batched, err := WinProbability(tc.sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, alt := range []struct {
				label string
				sys   *model.System
				o     *obs.Observer
			}{
				{"per-trial", fallback, nil},
				{"observed batched", tc.sys, obs.New(obs.NewRegistry(), obs.NewSink(io.Discard))},
				{"observed per-trial", fallback, obs.New(obs.NewRegistry(), nil)},
			} {
				c := cfg
				c.Obs = alt.o
				got, err := WinProbability(alt.sys, c)
				if err != nil {
					t.Fatal(err)
				}
				if got != batched {
					t.Errorf("%s workers=%d: %s %+v != batched %+v", tc.name, w, alt.label, got, batched)
				}
			}
		}
	}
}

// TestObservedRNGDrawsComputed pins the batched path's computed
// sim.rng_draws to exactly Trials × k.Dims(), and to the count the
// per-trial path's counting wrapper makes on the same streams.
func TestObservedRNGDrawsComputed(t *testing.T) {
	const trials = 10007
	for _, tc := range goldenSystems(t) {
		k, ok := model.NewBatchKernel(tc.sys)
		if !ok {
			t.Fatalf("%s: expected a batch kernel", tc.name)
		}
		want := int64(trials * k.Dims())
		for _, w := range []int{1, 3} {
			for _, path := range []struct {
				label string
				sys   *model.System
			}{{"batched", tc.sys}, {"per-trial", unbatch(t, tc.sys)}} {
				o := obs.New(obs.NewRegistry(), nil)
				if _, err := WinProbability(path.sys, Config{Trials: trials, Workers: w, Seed: 5, Obs: o}); err != nil {
					t.Fatal(err)
				}
				if got := o.Counter("sim.rng_draws").Value(); got != want {
					t.Errorf("%s workers=%d %s: sim.rng_draws = %d, want %d × %d = %d",
						tc.name, w, path.label, got, trials, k.Dims(), want)
				}
			}
		}
	}
}

// goldenCheckpoints holds the convergence-checkpoint streams captured
// from the pre-batch engine at Trials=10000, Workers=1, Seed=42,
// CheckpointEvery=2000. The batched observed path must replay wins
// per-trial so these streams stay bit-identical.
var goldenCheckpoints = map[string][5]int64{
	"threshold": {1080, 2206, 3307, 4365, 5475},
	"oblivious": {817, 1593, 2406, 3198, 4009},
	"interval":  {837, 1678, 2518, 3379, 4196},
	"mixed":     {663, 1287, 1959, 2616, 3248},
}

// TestBatchedCheckpointStreamMatchesGolden pins the checkpoint stream of
// both observed paths — batched, and the per-trial fallback that hands
// the checkpointer its flags batchSize trials at a time — to the
// pre-batch engine's.
func TestBatchedCheckpointStreamMatchesGolden(t *testing.T) {
	for _, tc := range goldenSystems(t) {
		for _, sys := range []*model.System{tc.sys, unbatch(t, tc.sys)} {
			var buf bytes.Buffer
			o := obs.New(obs.NewRegistry(), obs.NewSink(&buf))
			_, err := WinProbability(sys, Config{Trials: 10000, Workers: 1, Seed: 42, Obs: o, CheckpointEvery: 2000})
			if err != nil {
				t.Fatal(err)
			}
			evs, err := obs.ReadEvents(&buf)
			if err != nil {
				t.Fatal(err)
			}
			want := goldenCheckpoints[tc.name]
			var got []string
			for _, e := range evs {
				if e.Type == obs.EventCheckpoint {
					got = append(got, fmt.Sprintf("%v/%v", e.Attrs["trials"], e.Attrs["wins"]))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d checkpoints, want %d: %v", tc.name, len(got), len(want), got)
			}
			for i, w := range want {
				if exp := fmt.Sprintf("%d/%d", 2000*(i+1), w); got[i] != exp {
					t.Errorf("%s: checkpoint %d = %s, golden %s", tc.name, i, got[i], exp)
				}
			}
		}
	}
}

// TestWinProbabilityAllocationRegression pins the tentpole's allocation
// contract: a batched run's allocations are per-run setup (goroutines,
// spans, checkpoint events, result assembly), not per-trial — well under
// 0.01 allocs/trial, with no observer, with serve's metrics-only
// observer, and with a full event sink.
func TestWinProbabilityAllocationRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow in -short mode")
	}
	observers := []struct {
		label string
		o     *obs.Observer
	}{
		{"plain", nil},
		{"metrics", obs.New(obs.NewRegistry(), nil)},
		{"events", obs.New(obs.NewRegistry(), obs.NewSink(io.Discard))},
	}
	for _, tc := range goldenSystems(t) {
		for _, ob := range observers {
			const trials = 50000
			cfg := Config{Trials: trials, Workers: 1, Seed: 3, Obs: ob.o}
			if _, err := WinProbability(tc.sys, cfg); err != nil { // warm pools
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := WinProbability(tc.sys, cfg); err != nil {
					t.Fatal(err)
				}
			})
			if perTrial := allocs / trials; perTrial >= 0.01 {
				t.Errorf("%s/%s: %v allocs per run (%v/trial), want < 0.01/trial", tc.name, ob.label, allocs, perTrial)
			}
		}
	}
}
