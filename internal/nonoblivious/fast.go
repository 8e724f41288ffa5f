package nonoblivious

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/combin"
	"repro/internal/dist"
	"repro/internal/obs"
)

// WinningProbabilityOpts is WinningProbability with explicit worker
// sharding and observability. workers ≤ 1 evaluates serially; every worker
// count returns bit-identical results (fixed chunk grid, fixed-order
// reduction), so callers may key caches on the inputs alone. A nil
// observer disables instrumentation.
//
// The Theorem 5.1 sum Σ_b N₀(b)·N₁(b) is evaluated from two precomputed
// subset tables instead of Θ(3^n) per-subset inclusion-exclusion:
//
//   - N₀ for every bin-1 complement comes from one dist.AllSubsetVolumes
//     call (the Proposition 2.2 volumes share the threshold δ, so their
//     signed base terms update incrementally across exponents);
//   - N₁ for every bin-1 set comes from the same per-cardinality
//     sum-over-subsets scheme, except the Lemma 2.7 radix m−δ−|J|+σ_J a
//     depends on the outer cardinality m, so each exponent rebuilds its
//     signed base table before the zeta pass (counted as rebuilt steps).
//
// Total cost O(n²·2^n) time and a few 2^n-entry float64 arrays, which is
// what lets MaxNGeneral sit at 20 with certified float64 accuracy (see
// ExactErrorBound) instead of the old Θ(3^n) limit of 15.
func WinningProbabilityOpts(thresholds []float64, capacity float64, workers int, o *obs.Observer) (float64, error) {
	n := len(thresholds)
	if n < 2 {
		return 0, fmt.Errorf("nonoblivious: need at least 2 players, got %d", n)
	}
	if n > MaxNGeneral {
		return 0, fmt.Errorf("nonoblivious: general evaluation limited to %d players, got %d", MaxNGeneral, n)
	}
	if err := validateCapacity(capacity); err != nil {
		return 0, err
	}
	for i, a := range thresholds {
		if math.IsNaN(a) || a < 0 || a > 1 {
			return 0, fmt.Errorf("nonoblivious: threshold[%d] = %v outside [0, 1]", i, a)
		}
	}
	if workers <= 0 {
		workers = 1
	}
	// N₀[Z] = P(x_i ≤ a_i ∀i∈Z ∧ Σ_Z x ≤ δ): the box-simplex volume with
	// widths a_i at threshold δ.
	n0, stats, err := dist.AllSubsetVolumes(thresholds, capacity, workers)
	if err != nil {
		return 0, err
	}
	n1, err := bin1Table(thresholds, capacity, workers, &stats)
	if err != nil {
		return 0, err
	}
	full := (uint64(1) << uint(n)) - 1
	total, chunks, err := combin.ChunkedMaskSum(n, workers, func() func(uint64) float64 {
		return func(s uint64) float64 {
			v := n0[full&^s]
			if v <= 0 {
				return 0
			}
			return v * n1[s]
		}
	})
	if err != nil {
		return 0, err
	}
	o.Counter("exact.subsets").Add(int64(stats.Subsets))
	o.Counter("exact.steps.incremental").Add(int64(stats.Incremental))
	o.Counter("exact.steps.rebuilt").Add(int64(stats.Rebuilt))
	o.Counter("exact.chunks").Add(int64(chunks))
	o.Gauge("exact.workers").Set(float64(workers))
	return clamp01(total), nil
}

// bin1Table returns N₁[O] = P(x_i > a_i ∀i∈O ∧ Σ_O x ≤ δ) for every
// subset O — the Lemma 2.7 tail
//
//	Π_{i∈O}(1-a_i) − (1/m!) Σ_{J⊆O} (−1)^{|J|} (m − δ − |J| + σ_J a)_+^m
//
// with m = |O|. The base term depends on J only through |J| and σ_J a, so
// for each exponent m one signed base table over all J feeds a single
// sum-over-subsets pass that yields every |O| = m entry at once. Unlike
// the N₀ radix, this radix shifts with m, so each exponent's base is
// rebuilt from the precomputed σ_J a − |J| table (stats.Rebuilt) rather
// than updated incrementally.
func bin1Table(a []float64, capacity float64, workers int, stats *dist.SubsetVolumeStats) ([]float64, error) {
	n := len(a)
	size := uint64(1) << uint(n)
	sums, err := combin.SubsetSums(a)
	if err != nil {
		return nil, err
	}
	oneMinus := make([]float64, n)
	for i, ai := range a {
		oneMinus[i] = 1 - ai
	}
	prod, err := combin.SubsetProducts(oneMinus)
	if err != nil {
		return nil, err
	}
	// σ_J a − |J|, tabulated once so each exponent's rebuild is a guard,
	// a PowInt and a multiply.
	for mask := uint64(1); mask < size; mask++ {
		sums[mask] -= float64(bits.OnesCount64(mask))
	}
	invFact, err := invFactorials(n)
	if err != nil {
		return nil, err
	}
	shift := make([]float64, n+1)
	for m := range shift {
		shift[m] = float64(m) - capacity
	}
	out := make([]float64, size)
	out[0] = 1 // the empty bin always fits
	if err := rankedTailPasses(out, make([]float64, size), sums, prod, shift, invFact, n, workers); err != nil {
		return nil, err
	}
	stats.Subsets += size
	stats.Rebuilt += uint64(n) * size
	stats.Incremental += uint64(n) * uint64(n) * size / 2
	return out, nil
}

// invFactorials returns 1/m! for m = 0, ..., k.
func invFactorials(k int) ([]float64, error) {
	inv := make([]float64, k+1)
	for m := range inv {
		f, err := combin.FactorialFloat(m)
		if err != nil {
			return nil, err
		}
		inv[m] = 1 / f
	}
	return inv, nil
}

// rankedTailPasses fills out[S] for every S with 1 ≤ |S| ≤ kmax, where
// kmax = len(shift) − 1, from an inclusion-exclusion sum whose radix
// depends on S only through its cardinality m = |S|:
//
//	out[S] = max(box[S] − Σ_{J⊆S} b_m[J], 0)    (box nil: max(Σ_{J⊆S} b_m[J], 0))
//	b_m[J] = (−1)^{|J|} · invFact[m] · (shift[m] + off[J])₊^m
//
// For each m the signed base b_m is rebuilt over every J into the scratch
// table base (the radix moves with m, so nothing carries across
// exponents), one sum-over-subsets pass sums it over the subsets of every
// S at once, and only the |S| = m entries are read off. Both bin-1 tables
// (Lemma 2.7 tails for homogeneous inputs, shifted Proposition 2.2
// volumes for symmetric heterogeneous rules) and the Evaluator run
// through here, so their operation sequences stay identical.
func rankedTailPasses(out, base, off, box, shift, invFact []float64, n, workers int) error {
	for m := 1; m < len(shift); m++ {
		f, sh := invFact[m], shift[m]
		for mask, o := range off {
			r := sh + o
			if r > 0 {
				// Flipping the sign bit for odd |J| is exactly the
				// multiply by −1.
				odd := uint64(bits.OnesCount64(uint64(mask)) & 1)
				base[mask] = math.Float64frombits(math.Float64bits(f*combin.PowInt(r, m)) ^ odd<<63)
			} else {
				base[mask] = 0
			}
		}
		if err := combin.SumOverSubsets(base, n, workers); err != nil {
			return err
		}
		if err := combin.ForEachKSubsetMask(n, m, func(mask uint64) bool {
			v := base[mask]
			if box != nil {
				v = box[mask] - v
			}
			if v < 0 {
				v = 0
			}
			out[mask] = v
			return true
		}); err != nil {
			return err
		}
	}
	return nil
}

// ExactErrorBound is the documented absolute-error bound of the float64
// exact evaluators (WinningProbability and WinningProbabilityPi) against
// the big.Rat oracles (WinningProbabilityRat, WinningProbabilityPiRat): a
// conservative forward-error analysis over at most n²·3^n compensated
// operations — the 3^n covers the heterogeneous evaluator's pruned
// inclusion-exclusion walk — on terms no larger than M = max_m r^m/m! with
// r = max(δ, n−δ, 1), inflated by the worst-case range normalization
// min(π_i, 1)^−n. piMin is the smallest input range (pass 1 for
// homogeneous inputs). Deliberately loose — observed n = 10 errors are
// orders of magnitude smaller — but certified: the property tests pin the
// float path against the rational oracle within exactly this bound.
func ExactErrorBound(n int, capacity, piMin float64) float64 {
	if n < 1 {
		return 0
	}
	r := math.Max(math.Max(capacity, float64(n)-capacity), 1)
	mag, term := 1.0, 1.0
	for m := 1; m <= n; m++ {
		term *= r / float64(m)
		mag = math.Max(mag, term)
	}
	norm := 1.0
	if piMin > 0 && piMin < 1 {
		norm = math.Pow(piMin, -float64(n))
	}
	ops := float64(n) * float64(n) * math.Pow(3, float64(n))
	return 32 * ops * mag * norm * 0x1p-53
}
