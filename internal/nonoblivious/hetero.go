package nonoblivious

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/combin"
	"repro/internal/dist"
	"repro/internal/obs"
)

// MaxNHetero bounds the player count for heterogeneous-input evaluation.
// For a symmetric rule (one threshold β for every player) the bin-1
// threshold δ − |S|·β depends on the outer set S only through |S|, so the
// bin-1 side collapses to per-cardinality sum-over-subsets passes like the
// homogeneous path. Non-uniform thresholds make δ − Σ_{i∈S} a_i vary with
// S itself, which defeats that collapse: those fall back to a pruned
// depth-first walk per outer set (worst case Θ(3^n), heavily cut by the
// positivity guards), so the heterogeneous cap stays at the old general
// limit while the homogeneous MaxNGeneral moved to 20.
const MaxNHetero = 15

// WinningProbabilityPi generalizes Theorem 5.1 to heterogeneous inputs
// x_i ~ U[0, π_i]: the probability that neither bin overflows capacity δ
// when player i sends its input to bin 0 exactly when x_i ≤ thresholds[i].
// A nil (or all-ones) π delegates to the homogeneous Theorem 5.1
// evaluator. Thresholds stay in [0, 1], matching the rule class the model
// layer admits; a threshold above π_i simply sends player i to bin 0
// always.
func WinningProbabilityPi(thresholds, pi []float64, capacity float64) (float64, error) {
	return WinningProbabilityPiOpts(thresholds, pi, capacity, 0, nil)
}

// WinningProbabilityPiOpts is WinningProbabilityPi with explicit worker
// sharding and observability. workers ≤ 1 evaluates serially; every worker
// count returns bit-identical results (fixed chunk grid, fixed-order
// reduction). A nil observer disables instrumentation.
//
// The evaluation conditions per bin exactly as the homogeneous proof does.
// Writing S for the bin-1 set, Z = Sᶜ, c_i = min(a_i, π_i) and
// w_i = π_i − a_i:
//
//   - bin 0 contributes P(x_i ≤ a_i ∀i∈Z, Σ_Z x ≤ δ) =
//     Vol{0 ≤ y_i ≤ c_i, Σ y ≤ δ} / Π_{i∈Z} π_i — a Proposition 2.2
//     volume at the shared threshold δ, so all 2^n of them come from one
//     dist.AllSubsetVolumes sum-over-subsets table;
//   - bin 1 contributes P(x_i > a_i ∀i∈S, Σ_S x ≤ δ) =
//     Vol{0 ≤ y_i ≤ w_i, Σ y ≤ δ − Σ_{i∈S} a_i} / Π_{i∈S} π_i — the shift
//     identity behind Lemma 2.7. When every threshold equals one β, its
//     threshold δ − |S|·β depends on S only through |S|, and every volume
//     comes from one ranked table (piTables.rankedSum: one rebuilt signed
//     base and one zeta pass per cardinality). Otherwise the threshold
//     depends on S itself, and this side is evaluated per outer set by a
//     depth-first inclusion-exclusion walk over S's widths
//     (piTables.walkSum).
//
// Outer sets are skipped wholesale when any member has a_i ≥ π_i (it can
// never choose bin 1), when |S| exceeds the largest cardinality whose
// cheapest threshold sum stays below δ, or when the bin-0 side already
// vanishes.
func WinningProbabilityPiOpts(thresholds, pi []float64, capacity float64, workers int, o *obs.Observer) (float64, error) {
	n := len(thresholds)
	if n < 2 {
		return 0, fmt.Errorf("nonoblivious: need at least 2 players, got %d", n)
	}
	hetero := false
	for _, w := range pi {
		if w != 1 {
			hetero = true
			break
		}
	}
	if !hetero {
		return WinningProbabilityOpts(thresholds, capacity, workers, o)
	}
	if len(pi) != n {
		return 0, fmt.Errorf("nonoblivious: %d input ranges for %d players", len(pi), n)
	}
	for i, w := range pi {
		if !(w > 0) || math.IsInf(w, 1) {
			return 0, fmt.Errorf("nonoblivious: input range π[%d] = %v must be strictly positive and finite", i, w)
		}
	}
	if n > MaxNHetero {
		return 0, fmt.Errorf("nonoblivious: heterogeneous evaluation limited to %d players, got %d", MaxNHetero, n)
	}
	if err := validateCapacity(capacity); err != nil {
		return 0, err
	}
	symmetric := true
	for i, a := range thresholds {
		if math.IsNaN(a) || a < 0 || a > 1 {
			return 0, fmt.Errorf("nonoblivious: threshold[%d] = %v outside [0, 1]", i, a)
		}
		symmetric = symmetric && a == thresholds[0]
	}
	if workers <= 0 {
		workers = 1
	}
	h, err := newPiTables(thresholds, pi, capacity, workers)
	if err != nil {
		return 0, err
	}
	var total float64
	var chunks int
	if symmetric {
		total, chunks, err = h.rankedSum()
	} else {
		total, chunks, err = h.walkSum()
	}
	if err != nil {
		return 0, err
	}
	o.Counter("exact.subsets").Add(int64(h.stats.Subsets))
	o.Counter("exact.steps.incremental").Add(int64(h.stats.Incremental))
	o.Counter("exact.steps.rebuilt").Add(int64(h.stats.Rebuilt))
	o.Counter("exact.chunks").Add(int64(chunks))
	o.Gauge("exact.workers").Set(float64(workers))
	return clamp01(total / h.piProd), nil
}

// piTables is the state both bin-1 strategies of WinningProbabilityPiOpts
// share: the bin-0 volume table, the residual bin-1 widths and the outer-set
// guards. Each strategy returns the unnormalized Theorem 5.1 sum
// Σ_S vol₀[Sᶜ]·vol₁[S] and the chunk count, adding its work to stats.
type piTables struct {
	n          int
	capacity   float64
	thresholds []float64
	highs      []float64 // w_i = π_i − a_i: residual bin-1 widths (0 when a_i ≥ π_i)
	badHigh    uint64    // players that can never choose bin 1
	kmax       int       // largest bin-1 cardinality whose cheapest threshold sum stays below δ
	piProd     float64   // Π π_i, the range normalization
	vol0       []float64 // bin-0 volumes, indexed by the bin-0 set
	workers    int
	stats      dist.SubsetVolumeStats
}

// newPiTables builds the bin-0 volume table and the guards for validated
// inputs.
func newPiTables(thresholds, pi []float64, capacity float64, workers int) (*piTables, error) {
	n := len(thresholds)
	h := &piTables{
		n:          n,
		capacity:   capacity,
		thresholds: thresholds,
		highs:      make([]float64, n),
		piProd:     1,
		workers:    workers,
	}
	lows := make([]float64, n) // c_i = min(a_i, π_i): conditional bin-0 widths
	for i := 0; i < n; i++ {
		h.piProd *= pi[i]
		lows[i] = math.Min(thresholds[i], pi[i])
		if w := pi[i] - thresholds[i]; w > 0 {
			h.highs[i] = w
		} else {
			h.badHigh |= 1 << uint(i)
		}
	}
	var err error
	h.vol0, h.stats, err = dist.AllSubsetVolumes(lows, capacity, workers)
	if err != nil {
		return nil, err
	}
	// kmax: the largest bin-1 cardinality whose cheapest threshold sum
	// stays below δ — larger sets force δ − Σ_S a ≤ 0 and vanish.
	sorted := append([]float64(nil), thresholds...)
	sort.Float64s(sorted)
	prefix := 0.0
	for k := 1; k <= n; k++ {
		prefix += sorted[k-1]
		if prefix >= capacity {
			break
		}
		h.kmax = k
	}
	return h, nil
}

// rankedSum evaluates the bin-1 side of a symmetric rule, every a_i = β.
// The bin-1 threshold δ − mβ depends on S only through m = |S|, so
//
//	vol₁[S] = (1/m!) Σ_{J⊆S} (−1)^{|J|} (δ − mβ − σ_J w)₊^m
//
// for every S comes from rankedTailPasses: per m ≤ kmax one rebuilt
// signed base over all J (stats.Rebuilt) and one zeta pass
// (stats.Incremental), as bin1Table does for homogeneous inputs.
func (h *piTables) rankedSum() (float64, int, error) {
	n := h.n
	size := uint64(1) << uint(n)
	negW, err := combin.SubsetSums(h.highs)
	if err != nil {
		return 0, 0, err
	}
	for mask := range negW {
		negW[mask] = -negW[mask]
	}
	invFact, err := invFactorials(h.kmax)
	if err != nil {
		return 0, 0, err
	}
	beta := h.thresholds[0]
	shift := make([]float64, h.kmax+1)
	for m := range shift {
		shift[m] = h.capacity - float64(m)*beta
	}
	vol1 := make([]float64, size)
	vol1[0] = 1 // the empty bin always fits
	if err := rankedTailPasses(vol1, make([]float64, size), negW, nil, shift, invFact, n, h.workers); err != nil {
		return 0, 0, err
	}
	h.stats.Rebuilt += uint64(h.kmax) * size
	h.stats.Incremental += uint64(h.kmax) * uint64(n) * size / 2
	full := size - 1
	return combin.ChunkedMaskSum(n, h.workers, func() func(uint64) float64 {
		return func(s uint64) float64 {
			if s&h.badHigh != 0 || bits.OnesCount64(s) > h.kmax {
				return 0
			}
			v0 := h.vol0[full&^s]
			if v0 <= 0 {
				return 0
			}
			return v0 * vol1[s]
		}
	})
}

// walkSum evaluates the bin-1 side for any thresholds, per outer set S: a
// depth-first inclusion-exclusion walk (tailVolumeDFS) over S's widths in
// ascending order, visiting only the subsets with positive remainder (once
// a partial width sum reaches the threshold, every extension and every
// later sibling is pruned). Sets with δ − Σ_{i∈S} a_i ≤ 0 are skipped, and
// a residual box that fits whole under the threshold contributes Π w_i
// directly. Every walk term and box product counts in stats.Rebuilt.
func (h *piTables) walkSum() (float64, int, error) {
	n := h.n
	aSums, err := combin.SubsetSums(h.thresholds)
	if err != nil {
		return 0, 0, err
	}
	wSums, err := combin.SubsetSums(h.highs)
	if err != nil {
		return 0, 0, err
	}
	wProd, err := combin.SubsetProducts(h.highs)
	if err != nil {
		return 0, 0, err
	}
	invFact, err := invFactorials(n)
	if err != nil {
		return 0, 0, err
	}
	// DFS element order: ascending residual width, so the first sibling
	// whose width no longer fits under the remainder prunes the rest.
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if h.badHigh&(1<<uint(i)) == 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(x, y int) bool { return h.highs[order[x]] < h.highs[order[y]] })

	var mu sync.Mutex
	var dfsTerms []*uint64
	full := (uint64(1) << uint(n)) - 1
	total, chunks, err := combin.ChunkedMaskSum(n, h.workers, func() func(uint64) float64 {
		terms := new(uint64)
		mu.Lock()
		dfsTerms = append(dfsTerms, terms)
		mu.Unlock()
		ws := make([]float64, 0, n)
		return func(s uint64) float64 {
			if s&h.badHigh != 0 {
				return 0
			}
			m := bits.OnesCount64(s)
			if m > h.kmax {
				return 0
			}
			v0 := h.vol0[full&^s]
			if v0 <= 0 {
				return 0
			}
			if m == 0 {
				return v0 // empty bin 1 always fits
			}
			t := h.capacity - aSums[s]
			if t <= 0 {
				return 0
			}
			if t >= wSums[s] {
				// The whole residual box fits under the threshold: the
				// volume is exactly Π w_i, no inclusion-exclusion needed.
				*terms++
				return v0 * wProd[s]
			}
			ws = ws[:0]
			for _, i := range order {
				if s&(1<<uint(i)) != 0 {
					ws = append(ws, h.highs[i])
				}
			}
			v1, steps := tailVolumeDFS(ws, t, m, invFact[m])
			*terms += steps
			if v1 <= 0 {
				return 0
			}
			return v0 * v1
		}
	})
	if err != nil {
		return 0, 0, err
	}
	for _, c := range dfsTerms {
		h.stats.Rebuilt += *c
	}
	return total, chunks, nil
}

// tailVolumeDFS evaluates the Proposition 2.2 volume
// (1/m!) Σ_{J ⊆ ws} (−1)^{|J|} (t − Σ_J w)_+^m by depth-first subset
// enumeration over the ascending widths ws, visiting only subsets with
// positive remainder: widths are positive and sorted, so once a partial
// sum reaches t the current branch and all later siblings are dead. Plain
// (uncompensated) summation — the ExactErrorBound budget dwarfs the Θ(2^m)
// rounding worst case. It returns the volume and the number of terms
// evaluated.
func tailVolumeDFS(ws []float64, t float64, m int, invFact float64) (float64, uint64) {
	var acc float64
	var steps uint64
	var walk func(start int, sum, sign float64)
	walk = func(start int, sum, sign float64) {
		steps++
		acc += sign * combin.PowInt(t-sum, m)
		for j := start; j < len(ws); j++ {
			next := sum + ws[j]
			if next >= t {
				return
			}
			walk(j+1, next, -sign)
		}
	}
	walk(0, 0, 1)
	return acc * invFact, steps
}
