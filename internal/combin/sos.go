package combin

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// MaxSubsetTable bounds the ground-set size for the table-building helpers
// in this file, which materialize one float64 per subset (8·2^n bytes per
// table; n = 22 is 32 MiB per table).
const MaxSubsetTable = 22

// sumChunkGrid is the fixed number of chunks the mask range is split into
// for sharded reductions. The grid depends only on the problem size — never
// on the worker count — so per-chunk partial sums, and therefore the final
// fixed-order reduction, are bit-identical for every worker count.
const sumChunkGrid = 64

// SubsetSums returns sums[mask] = Σ_{i∈mask} vals[i] for every subset mask
// of {0, ..., len(vals)-1}, via the one-pass low-bit recurrence
// sums[mask] = sums[mask without its lowest bit] + vals[lowest bit]. Each
// entry costs one addition, so consecutive-mask walks see fully incremental
// subset-sum state.
func SubsetSums(vals []float64) ([]float64, error) {
	n := len(vals)
	if n > MaxSubsetTable {
		return nil, fmt.Errorf("combin: subset-sum table for %d elements exceeds the %d-element limit", n, MaxSubsetTable)
	}
	out := make([]float64, uint64(1)<<uint(n))
	for mask := uint64(1); mask < uint64(len(out)); mask++ {
		out[mask] = out[mask&(mask-1)] + vals[bits.TrailingZeros64(mask)]
	}
	return out, nil
}

// SubsetProducts returns prods[mask] = Π_{i∈mask} vals[i] for every subset
// mask of {0, ..., len(vals)-1} (empty product 1), via the same low-bit
// recurrence as SubsetSums.
func SubsetProducts(vals []float64) ([]float64, error) {
	n := len(vals)
	if n > MaxSubsetTable {
		return nil, fmt.Errorf("combin: subset-product table for %d elements exceeds the %d-element limit", n, MaxSubsetTable)
	}
	out := make([]float64, uint64(1)<<uint(n))
	out[0] = 1
	for mask := uint64(1); mask < uint64(len(out)); mask++ {
		out[mask] = out[mask&(mask-1)] * vals[bits.TrailingZeros64(mask)]
	}
	return out, nil
}

// sosSerialCells is the table size below which SumOverSubsets runs
// serially whatever its worker count: a transform over fewer cells
// finishes before goroutines spawned for it pay for themselves. Measured
// with two workers on a 2-vCPU x86-64 VM, the sharded transform costs
// more CPU at every size and is also slower on the wall clock up to
// 2^17 cells (n = 15: 130 µs against 90 µs serial); from 2^18 cells it
// wins on the wall clock (n = 18: 0.87 ms against 1.05 ms; n = 19:
// 1.84 ms against 2.29 ms), which is what a lone homogeneous exact
// evaluation at n = 19–20 with two exact workers gains from it.
const sosSerialCells = 1 << 18

// SumOverSubsets transforms arr in place into its zeta transform:
// arr[T] becomes Σ_{I⊆T} arr[I]. arr must have length 2^n. The standard
// bitwise DP runs n passes of 2^(n-1) pair additions each; pass b adds the
// bit-b-clear half of every aligned block into the bit-b-set half, so
// writes are disjoint and the result is independent of how the block range
// is scheduled across workers. Passes run three at a time on eight cells
// held in registers (zeta8; zetaLow3 for passes 0–2, zeta3 above), which
// performs the same pair additions in the same dependency order; the one
// or two passes left over at the top run one at a time. workers ≤ 1, or a
// table of fewer than sosSerialCells cells, runs serially.
func SumOverSubsets(arr []float64, n, workers int) error {
	if n < 0 || n > MaxSubsetTable {
		return fmt.Errorf("combin: sum-over-subsets ground size %d out of range [0, %d]", n, MaxSubsetTable)
	}
	size := uint64(1) << uint(n)
	if uint64(len(arr)) != size {
		return fmt.Errorf("combin: sum-over-subsets table length %d, want %d", len(arr), size)
	}
	if size < sosSerialCells {
		workers = 1
	}
	// Each triple of passes is a map over size/8 independent 8-cell
	// groups; the serial branches avoid the closures, which escape through
	// forChunks' worker branch and would heap-allocate even when run
	// serially.
	b := 0
	if n >= 3 {
		if workers <= 1 {
			zetaLow3(arr)
		} else {
			forChunks(workers, size/8, func(_, lo, hi uint64) {
				zetaLow3(arr[lo*8 : hi*8])
			})
		}
		b = 3
	}
	for ; b+3 <= n; b += 3 {
		h := uint64(1) << uint(b)
		if workers <= 1 {
			zeta3(arr, h, 0, size/8)
			continue
		}
		forChunks(workers, size/8, func(_, lo, hi uint64) {
			zeta3(arr, h, lo, hi)
		})
	}
	for ; b < n; b++ {
		half := uint64(1) << uint(b)
		step := half << 1
		if workers <= 1 {
			for base := uint64(0); base < size; base += step {
				low := arr[base : base+half]
				high := arr[base+half : base+step : base+step]
				for i := range high {
					high[i] += low[i]
				}
			}
			continue
		}
		forChunks(workers, size/step, func(_, lo, hi uint64) {
			for blk := lo; blk < hi; blk++ {
				base := blk * step
				low := arr[base : base+half]
				high := arr[base+half : base+step : base+step]
				for i := range high {
					high[i] += low[i]
				}
			}
		})
	}
	return nil
}

// zeta8 applies three consecutive zeta passes to eight cells c_0..c_7,
// cell k standing for the subset with offset bits k: the 12 pair
// additions of the three single passes, in their dependency order, so the
// result is bit-identical to running the passes one at a time. c_0 is
// never written, so only c_1..c_7 are returned.
func zeta8(a0, a1, a2, a3, a4, a5, a6, a7 float64) (float64, float64, float64, float64, float64, float64, float64) {
	a1 += a0
	a3 += a2
	a5 += a4
	a7 += a6
	a2 += a0
	a3 += a1
	a6 += a4
	a7 += a5
	a4 += a0
	a5 += a1
	a6 += a2
	a7 += a3
	return a1, a2, a3, a4, a5, a6, a7
}

// zetaLow3 runs zeta passes 0, 1 and 2 on every aligned 8-cell block of
// arr, whose length must be a multiple of 8.
func zetaLow3(arr []float64) {
	for i := 0; i+8 <= len(arr); i += 8 {
		blk := arr[i : i+8 : i+8]
		blk[1], blk[2], blk[3], blk[4], blk[5], blk[6], blk[7] =
			zeta8(blk[0], blk[1], blk[2], blk[3], blk[4], blk[5], blk[6], blk[7])
	}
}

// zeta3 runs zeta passes b, b+1 and b+2, with h = 2^b, over the 8-cell
// groups [lo, hi) of arr. Every aligned 8h-cell block is eight h-cell
// runs; group g is offset g mod h of block g/h, one cell per run.
func zeta3(arr []float64, h, lo, hi uint64) {
	for lo < hi {
		off := lo % h
		cnt := min(hi-lo, h-off)
		base := (lo-off)*8 + off
		r0 := arr[base : base+cnt]
		r1 := arr[base+h : base+h+cnt]
		r2 := arr[base+2*h : base+2*h+cnt]
		r3 := arr[base+3*h : base+3*h+cnt]
		r4 := arr[base+4*h : base+4*h+cnt]
		r5 := arr[base+5*h : base+5*h+cnt]
		r6 := arr[base+6*h : base+6*h+cnt]
		r7 := arr[base+7*h : base+7*h+cnt]
		for i := range r0 {
			r1[i], r2[i], r3[i], r4[i], r5[i], r6[i], r7[i] =
				zeta8(r0[i], r1[i], r2[i], r3[i], r4[i], r5[i], r6[i], r7[i])
		}
		lo += cnt
	}
}

// ChunkedMaskSum sums term(mask) over all 2^n masks through a fixed chunk
// grid: each chunk is Neumaier-summed on its own Accumulator, and the
// per-chunk totals are combined by a fixed-order pairwise tree. Both the
// grid and the reduction order depend only on n, so the result is
// bit-identical for every worker count. makeTerm is invoked once per
// worker to build that worker's term function, letting callers attach
// private scratch state; each term function then sees strictly increasing
// masks within a chunk. It returns the total and the number of chunks.
func ChunkedMaskSum(n, workers int, makeTerm func() func(mask uint64) float64) (float64, int, error) {
	if n < 0 || n > MaxSubsetTable {
		return 0, 0, fmt.Errorf("combin: chunked mask sum ground size %d out of range [0, %d]", n, MaxSubsetTable)
	}
	total := uint64(1) << uint(n)
	span, nChunks := chunkSpan(total)
	partial := make([]float64, nChunks)
	run := func(term func(mask uint64) float64, c, lo, hi uint64) {
		var acc Accumulator
		for mask := lo; mask < hi; mask++ {
			acc.Add(term(mask))
		}
		partial[c] = acc.Sum()
	}
	if workers <= 1 {
		term := makeTerm()
		for c := uint64(0); c < nChunks; c++ {
			lo := c * span
			run(term, c, lo, min(lo+span, total))
		}
	} else {
		var cursor atomic.Uint64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				term := makeTerm()
				for {
					c := cursor.Add(1) - 1
					if c >= nChunks {
						return
					}
					lo := c * span
					run(term, c, lo, min(lo+span, total))
				}
			}()
		}
		wg.Wait()
	}
	// Fixed-order pairwise tree over the chunk totals.
	for len(partial) > 1 {
		half := (len(partial) + 1) / 2
		for i := 0; i < len(partial)/2; i++ {
			partial[i] = partial[2*i] + partial[2*i+1]
		}
		if len(partial)%2 == 1 {
			partial[half-1] = partial[len(partial)-1]
		}
		partial = partial[:half]
	}
	return partial[0], int(nChunks), nil
}

// PowInt returns x^k for k ≥ 0 by binary exponentiation — cheaper and, for
// the small exponents of the inclusion-exclusion kernels, more accurate
// than math.Pow.
func PowInt(x float64, k int) float64 {
	r := 1.0
	for k > 0 {
		if k&1 == 1 {
			r *= x
		}
		x *= x
		k >>= 1
	}
	return r
}

// chunkSpan splits [0, total) into at most sumChunkGrid equal spans,
// independent of the worker count.
func chunkSpan(total uint64) (span, chunks uint64) {
	if total == 0 {
		return 1, 0
	}
	span = (total + sumChunkGrid - 1) / sumChunkGrid
	return span, (total + span - 1) / span
}

// forChunks splits [0, total) into the fixed chunk grid and invokes fn for
// every chunk, pulled by workers goroutines from an atomic cursor. fn must
// write only state owned by its range; under that contract the outcome is
// independent of scheduling.
func forChunks(workers int, total uint64, fn func(chunk, lo, hi uint64)) {
	span, nChunks := chunkSpan(total)
	if workers <= 1 || nChunks <= 1 {
		for c := uint64(0); c < nChunks; c++ {
			lo := c * span
			fn(c, lo, min(lo+span, total))
		}
		return
	}
	var cursor atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := cursor.Add(1) - 1
				if c >= nChunks {
					return
				}
				lo := c * span
				fn(c, lo, min(lo+span, total))
			}
		}()
	}
	wg.Wait()
}
