package nonoblivious

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand/v2"
	"testing"

	"repro/internal/obs"
)

// dyadicCapacity returns δ = round(n·64/3)/64 as (float64, *big.Rat): a
// capacity near the paper's δ = n/3 regime that is exactly representable
// in both arithmetics, so the float and rational evaluators see the same
// instance bit-for-bit.
func dyadicCapacity(n int) (float64, *big.Rat) {
	k := int64(math.Round(float64(n) * 64 / 3))
	return float64(k) / 64, big.NewRat(k, 64)
}

// dyadic64 returns k/64 with k ~ U{lo, ..., hi} as matching float64 and
// big.Rat values.
func dyadic64(rng *rand.Rand, lo, hi int64) (float64, *big.Rat) {
	k := lo + rng.Int64N(hi-lo+1)
	return float64(k) / 64, big.NewRat(k, 64)
}

// TestWinningProbabilityMatchesRatOracle pins the float64 Theorem 5.1
// fast path against the exact rational oracle on random dyadic threshold
// vectors for every n up to the oracle cap, within the documented
// ExactErrorBound.
func TestWinningProbabilityMatchesRatOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 1))
	for n := 2; n <= MaxNExact; n++ {
		capF, capR := dyadicCapacity(n)
		bound := ExactErrorBound(n, capF, 1)
		for trial := 0; trial < 3; trial++ {
			ths := make([]float64, n)
			thsR := make([]*big.Rat, n)
			for i := range ths {
				ths[i], thsR[i] = dyadic64(rng, 0, 64)
			}
			got, err := WinningProbability(ths, capF)
			if err != nil {
				t.Fatalf("n=%d float: %v", n, err)
			}
			want, err := WinningProbabilityRat(thsR, capR)
			if err != nil {
				t.Fatalf("n=%d rat: %v", n, err)
			}
			wf, _ := want.Float64()
			if d := math.Abs(got - wf); d > bound {
				t.Errorf("n=%d trial %d: float %v vs oracle %v, |diff| %g exceeds certified bound %g",
					n, trial, got, wf, d, bound)
			}
		}
	}
}

// TestWinningProbabilityPiMatchesRatOracle pins the heterogeneous float64
// path against its rational oracle on random dyadic per-player thresholds
// (which take the pruned DFS bin-1 walk) and input ranges π ∈ [1/2, 2].
func TestWinningProbabilityPiMatchesRatOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 2))
	for n := 2; n <= MaxNExact; n++ {
		capF, capR := dyadicCapacity(n)
		for trial := 0; trial < 3; trial++ {
			ths := make([]float64, n)
			thsR := make([]*big.Rat, n)
			pis := make([]float64, n)
			pisR := make([]*big.Rat, n)
			for i := range ths {
				ths[i], thsR[i] = dyadic64(rng, 0, 64)
				pis[i], pisR[i] = dyadic64(rng, 32, 128)
			}
			checkPiAgainstRat(t, fmt.Sprintf("n=%d trial %d", n, trial), ths, thsR, pis, pisR, capF, capR)
		}
	}
}

// TestWinningProbabilityPiSymmetricMatchesRatOracle pins the ranked bin-1
// table that symmetric rules take against the rational oracle for every n
// up to the oracle cap: random dyadic β and π ∈ [1/2, 2], plus the edge
// cases of a player that can never choose bin 1 (β ≥ π_i, including
// β = π_i exactly), β = 0, β = 1, and capacities small enough that at most
// zero or one player fits in bin 1.
func TestWinningProbabilityPiSymmetricMatchesRatOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 4))
	type edge struct {
		name   string
		beta   int64 // β = beta/64
		capK   int64 // δ = capK/64; 0 keeps dyadicCapacity(n)
		lowPis bool  // force π_0 = 1/2 and π_1 = β (clamped to [1/2, 2])
	}
	edges := []edge{
		{"random", -1, 0, false},
		{"random", -1, 0, false},
		{"badHigh", 48, 0, true},
		{"beta=0", 0, 0, false},
		{"beta=1", 64, 0, false},
		{"kmax=0", 32, 16, false},
		{"kmax=1", 32, 48, false},
	}
	for n := 2; n <= MaxNExact; n++ {
		for _, e := range edges {
			capF, capR := dyadicCapacity(n)
			if e.capK > 0 {
				capF, capR = float64(e.capK)/64, big.NewRat(e.capK, 64)
			}
			var beta float64
			var betaR *big.Rat
			if e.beta < 0 {
				beta, betaR = dyadic64(rng, 0, 64)
			} else {
				beta, betaR = float64(e.beta)/64, big.NewRat(e.beta, 64)
			}
			ths := make([]float64, n)
			thsR := make([]*big.Rat, n)
			pis := make([]float64, n)
			pisR := make([]*big.Rat, n)
			for i := range ths {
				ths[i], thsR[i] = beta, betaR
				pis[i], pisR[i] = dyadic64(rng, 32, 128)
			}
			if e.lowPis {
				pis[0], pisR[0] = 0.5, big.NewRat(1, 2)
				pis[1], pisR[1] = beta, betaR
			}
			checkPiAgainstRat(t, fmt.Sprintf("n=%d %s β=%v δ=%v", n, e.name, beta, capF), ths, thsR, pis, pisR, capF, capR)
		}
	}
}

// checkPiAgainstRat compares the float64 heterogeneous evaluator with its
// rational oracle on one instance, within ExactErrorBound.
func checkPiAgainstRat(t *testing.T, name string, ths []float64, thsR []*big.Rat, pis []float64, pisR []*big.Rat, capF float64, capR *big.Rat) {
	t.Helper()
	piMin := math.Inf(1)
	for _, p := range pis {
		piMin = math.Min(piMin, p)
	}
	bound := ExactErrorBound(len(ths), capF, piMin)
	got, err := WinningProbabilityPi(ths, pis, capF)
	if err != nil {
		t.Fatalf("%s float: %v", name, err)
	}
	want, err := WinningProbabilityPiRat(thsR, pisR, capR)
	if err != nil {
		t.Fatalf("%s rat: %v", name, err)
	}
	wf, _ := want.Float64()
	if d := math.Abs(got - wf); d > bound {
		t.Errorf("%s: float %v vs oracle %v, |diff| %g exceeds certified bound %g", name, got, wf, d, bound)
	}
}

// TestRankedBin1MatchesWalk compares the two bin-1 strategies of the
// heterogeneous evaluator on the same symmetric instances above the
// rational oracle's cap, n = 11..15: the ranked table the evaluator takes
// for them against the per-set DFS walk it takes for non-uniform
// thresholds, both called directly on one set of bin-0 tables.
func TestRankedBin1MatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 5))
	for n := 11; n <= MaxNHetero; n++ {
		capF, _ := dyadicCapacity(n)
		beta, _ := dyadic64(rng, 16, 48)
		ths := make([]float64, n)
		pis := make([]float64, n)
		piMin := math.Inf(1)
		for i := range ths {
			ths[i] = beta
			pis[i], _ = dyadic64(rng, 32, 64)
			piMin = math.Min(piMin, pis[i])
		}
		h, err := newPiTables(ths, pis, capF, 1)
		if err != nil {
			t.Fatal(err)
		}
		ranked, _, err := h.rankedSum()
		if err != nil {
			t.Fatal(err)
		}
		walked, _, err := h.walkSum()
		if err != nil {
			t.Fatal(err)
		}
		d := math.Abs(ranked-walked) / h.piProd
		if bound := ExactErrorBound(n, capF, piMin); d > bound {
			t.Errorf("n=%d β=%v: ranked %v vs walk %v, |diff| %g exceeds the bound %g",
				n, beta, ranked/h.piProd, walked/h.piProd, d, bound)
		}
		t.Logf("n=%d β=%v kmax=%d: P=%.15f, |ranked−walk| = %.3g", n, beta, h.kmax, ranked/h.piProd, d)
	}
}

// TestPiStepCounters pins the exact.steps counters of both heterogeneous
// bin-1 strategies on one n = 4 instance, π = (3/4, 1, 5/4, 3/2),
// δ = 3/2. The bin-0 table contributes 2^n = 16 subsets and
// n·2^n + n²·2^(n−1) = 64 + 128 = 192 incremental steps either way.
//
//   - Symmetric β = 1/2: kmax = 2 (3β = δ), so the ranked table rebuilds
//     kmax·2^n = 32 base cells and adds kmax·n·2^(n−1) = 64 zeta steps.
//   - Thresholds (1/2, 1/2, 1/2, 1/4): every walk term and box product
//     counts as rebuilt, none as incremental; the expected count comes
//     from brute force — the walk visits exactly the J ⊆ S whose width
//     sum stays below S's threshold.
func TestPiStepCounters(t *testing.T) {
	pis := []float64{0.75, 1, 1.25, 1.5}
	const capacity = 1.5
	counters := func(ths []float64) (subsets, incremental, rebuilt int64) {
		o := obs.New(obs.NewRegistry(), nil)
		if _, err := WinningProbabilityPiOpts(ths, pis, capacity, 1, o); err != nil {
			t.Fatal(err)
		}
		return o.Counter("exact.subsets").Value(), o.Counter("exact.steps.incremental").Value(), o.Counter("exact.steps.rebuilt").Value()
	}
	if s, inc, reb := counters([]float64{0.5, 0.5, 0.5, 0.5}); s != 16 || inc != 192+64 || reb != 32 {
		t.Errorf("ranked: subsets/incremental/rebuilt = %d/%d/%d, want 16/256/32", s, inc, reb)
	}

	ths := []float64{0.5, 0.5, 0.5, 0.25}
	var want int64
	const kmax = 3 // 0.25 + 0.5 + 0.5 < δ ≤ 0.25 + 3·0.5
	for s := 1; s < 16; s++ {
		if bits.OnesCount(uint(s)) > kmax {
			continue
		}
		tRem, wSum := capacity, 0.0
		for i := range ths {
			if s&(1<<i) != 0 {
				tRem -= ths[i]
				wSum += pis[i] - ths[i]
			}
		}
		switch {
		case tRem <= 0:
		case tRem >= wSum:
			want++ // the whole box fits: one product
		default:
			for j := 0; j < 16; j++ {
				if j&^s != 0 {
					continue
				}
				sum := 0.0
				for i := range ths {
					if j&(1<<i) != 0 {
						sum += pis[i] - ths[i]
					}
				}
				if sum < tRem {
					want++
				}
			}
		}
	}
	if s, inc, reb := counters(ths); s != 16 || inc != 192 || reb != want {
		t.Errorf("walk: subsets/incremental/rebuilt = %d/%d/%d, want 16/192/%d", s, inc, reb, want)
	}
}

// TestExactWorkerDeterminism requires the sharded enumerations to be
// bit-identical across worker counts — the property that keeps the worker
// count out of the engine's cache key.
func TestExactWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(51, 3))
	const n = 12
	capF, _ := dyadicCapacity(n)
	ths := make([]float64, n)
	pis := make([]float64, n)
	for i := range ths {
		ths[i], _ = dyadic64(rng, 0, 64)
		pis[i], _ = dyadic64(rng, 32, 128)
	}
	base, err := WinningProbabilityOpts(ths, capF, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseHet, err := WinningProbabilityPiOpts(ths, pis, capF, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		got, err := WinningProbabilityOpts(ths, capF, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(base) {
			t.Errorf("homogeneous: workers=%d returned %x, workers=1 returned %x",
				workers, math.Float64bits(got), math.Float64bits(base))
		}
		gotHet, err := WinningProbabilityPiOpts(ths, pis, capF, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gotHet) != math.Float64bits(baseHet) {
			t.Errorf("hetero: workers=%d returned %x, workers=1 returned %x",
				workers, math.Float64bits(gotHet), math.Float64bits(baseHet))
		}
	}
	// Symmetric heterogeneous rules take the ranked bin-1 table, at the
	// served size n = 13 and at the MaxNHetero cap.
	for _, n := range []int{13, 15} {
		capF, _ := dyadicCapacity(n)
		beta, _ := dyadic64(rng, 16, 48)
		ths := make([]float64, n)
		pis := make([]float64, n)
		for i := range ths {
			ths[i] = beta
			pis[i], _ = dyadic64(rng, 32, 64)
		}
		base, err := WinningProbabilityPiOpts(ths, pis, capF, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 7} {
			got, err := WinningProbabilityPiOpts(ths, pis, capF, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(base) {
				t.Errorf("symmetric hetero n=%d: workers=%d returned %x, workers=1 returned %x",
					n, workers, math.Float64bits(got), math.Float64bits(base))
			}
		}
	}
	// From n = 18 the homogeneous tables' zeta passes run on the sharded
	// path (combin's serial cut-off is 2^18 cells).
	const nSharded = 18
	capS, _ := dyadicCapacity(nSharded)
	thsS := make([]float64, nSharded)
	for i := range thsS {
		thsS[i], _ = dyadic64(rng, 0, 64)
	}
	baseS, err := WinningProbabilityOpts(thsS, capS, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3} {
		got, err := WinningProbabilityOpts(thsS, capS, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(baseS) {
			t.Errorf("homogeneous n=%d: workers=%d returned %x, workers=1 returned %x",
				nSharded, workers, math.Float64bits(got), math.Float64bits(baseS))
		}
	}
}

// TestOptimalSymmetricPinnedN3 pins the certified Sturm-isolated optimum
// for the paper's flagship instance (n = 3, δ = 1) to more than 10
// decimal places: β* the root of the monic β² − 2β + 6/7 on the optimal
// piece, and the winning probability there.
func TestOptimalSymmetricPinnedN3(t *testing.T) {
	res, err := OptimalSymmetric(3, big.NewRat(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantBeta = 0.6220355269907728
		wantP    = 0.5446311396758939
	)
	if d := math.Abs(res.BetaFloat - wantBeta); d > 5e-14 {
		t.Errorf("β* = %.16f, want %.16f (|diff| %g)", res.BetaFloat, wantBeta, d)
	}
	if d := math.Abs(res.WinProbabilityFloat - wantP); d > 5e-14 {
		t.Errorf("P* = %.16f, want %.16f (|diff| %g)", res.WinProbabilityFloat, wantP, d)
	}
}
