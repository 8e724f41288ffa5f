package combin

import (
	"math"
	"math/bits"
	"testing"
)

// TestSubsetSumsAndProducts pins both table builders against direct
// per-mask evaluation.
func TestSubsetSumsAndProducts(t *testing.T) {
	vals := []float64{0.5, 1.25, 2, 0.125, 3}
	sums, err := SubsetSums(vals)
	if err != nil {
		t.Fatalf("SubsetSums: %v", err)
	}
	prods, err := SubsetProducts(vals)
	if err != nil {
		t.Fatalf("SubsetProducts: %v", err)
	}
	if len(sums) != 32 || len(prods) != 32 {
		t.Fatalf("table lengths %d, %d, want 32", len(sums), len(prods))
	}
	for mask := uint64(0); mask < 32; mask++ {
		wantS, wantP := 0.0, 1.0
		for i, v := range vals {
			if mask&(1<<uint(i)) != 0 {
				wantS += v
				wantP *= v
			}
		}
		// The values are dyadic, so both recurrences are exact.
		if sums[mask] != wantS {
			t.Fatalf("sums[%b] = %v, want %v", mask, sums[mask], wantS)
		}
		if prods[mask] != wantP {
			t.Fatalf("prods[%b] = %v, want %v", mask, prods[mask], wantP)
		}
	}
}

// TestSubsetTableLimits covers the table-size guards.
func TestSubsetTableLimits(t *testing.T) {
	big := make([]float64, MaxSubsetTable+1)
	if _, err := SubsetSums(big); err == nil {
		t.Fatal("SubsetSums accepted an oversized ground set")
	}
	if _, err := SubsetProducts(big); err == nil {
		t.Fatal("SubsetProducts accepted an oversized ground set")
	}
	if err := SumOverSubsets(make([]float64, 8), 4, 1); err == nil {
		t.Fatal("SumOverSubsets accepted a mismatched table length")
	}
	if _, _, err := ChunkedMaskSum(MaxSubsetTable+1, 1, nil); err == nil {
		t.Fatal("ChunkedMaskSum accepted an oversized ground set")
	}
}

// TestSumOverSubsets pins the zeta transform against the O(3^n) direct
// submask sum and, bit for bit, against one-pass-at-a-time pair additions
// (which the register-blocked passes must reproduce exactly), serial and
// worker-parallel. Below sosSerialCells every worker count runs serially;
// the sizes at and above it exercise the sharded path, which must be
// bit-identical to the serial one: the pair additions are identical, only
// their scheduling differs.
func TestSumOverSubsets(t *testing.T) {
	input := func(n int) []float64 {
		base := make([]float64, 1<<n)
		for mask := range base {
			base[mask] = math.Sin(float64(mask)+1) / float64(mask+2)
		}
		return base
	}
	for _, n := range []int{0, 1, 2, 3, 4, 8, 12} {
		base := input(n)
		want := make([]float64, len(base))
		for mask := uint64(0); mask < uint64(len(base)); mask++ {
			// Direct submask enumeration.
			sub := mask
			for {
				want[mask] += base[sub]
				if sub == 0 {
					break
				}
				sub = (sub - 1) & mask
			}
		}
		passes := singlePassZeta(base, n)
		for _, workers := range []int{1, 4} {
			got := append([]float64(nil), base...)
			if err := SumOverSubsets(got, n, workers); err != nil {
				t.Fatalf("n=%d SumOverSubsets(workers=%d): %v", n, workers, err)
			}
			for mask := range got {
				if math.Abs(got[mask]-want[mask]) > 1e-12*(1+math.Abs(want[mask])) {
					t.Fatalf("n=%d workers=%d: zeta[%b] = %v, want %v", n, workers, mask, got[mask], want[mask])
				}
				if math.Float64bits(got[mask]) != math.Float64bits(passes[mask]) {
					t.Fatalf("n=%d workers=%d: zeta[%b] = %v, single passes give %v", n, workers, mask, got[mask], passes[mask])
				}
			}
		}
	}
	cut := bits.TrailingZeros64(sosSerialCells)
	for _, n := range []int{cut - 1, cut, cut + 1} {
		base := input(n)
		passes := singlePassZeta(base, n)
		for _, workers := range []int{1, 2, 3, 7} {
			got := append([]float64(nil), base...)
			if err := SumOverSubsets(got, n, workers); err != nil {
				t.Fatal(err)
			}
			for mask := range got {
				if math.Float64bits(got[mask]) != math.Float64bits(passes[mask]) {
					t.Fatalf("n=%d workers=%d: zeta[%b] = %v, single passes give %v", n, workers, mask, got[mask], passes[mask])
				}
			}
		}
	}
}

// singlePassZeta is the reference zeta transform: n sweeps, pass b adding
// each bit-b-clear cell into its bit-b-set partner.
func singlePassZeta(base []float64, n int) []float64 {
	out := append([]float64(nil), base...)
	for b := 0; b < n; b++ {
		bit := 1 << b
		for mask := range out {
			if mask&bit != 0 {
				out[mask] += out[mask^bit]
			}
		}
	}
	return out
}

// TestSumOverSubsetsSmallTableAllocs pins the serial cut-off: a table below
// sosSerialCells spawns no goroutines, so a pass allocates nothing even
// when the caller offers workers.
func TestSumOverSubsetsSmallTableAllocs(t *testing.T) {
	for _, n := range []int{13, bits.TrailingZeros64(sosSerialCells) - 1} {
		arr := make([]float64, 1<<n)
		for _, workers := range []int{1, 2} {
			if got := testing.AllocsPerRun(20, func() {
				if err := SumOverSubsets(arr, n, workers); err != nil {
					t.Fatal(err)
				}
			}); got != 0 {
				t.Errorf("n=%d workers=%d: %v allocs per pass, want 0", n, workers, got)
			}
		}
	}
}

// TestChunkedMaskSumDeterminism pins the sharded reduction: exact same
// bits for 1, 2 and 7 workers, and agreement with a compensated serial sum.
func TestChunkedMaskSumDeterminism(t *testing.T) {
	const n = 11
	term := func(mask uint64) float64 {
		v := math.Sin(float64(mask) + 0.5)
		if mask%3 == 1 {
			return -v
		}
		return v
	}
	makeTerm := func() func(uint64) float64 { return term }
	ref, chunks, err := ChunkedMaskSum(n, 1, makeTerm)
	if err != nil {
		t.Fatalf("ChunkedMaskSum: %v", err)
	}
	if chunks <= 1 {
		t.Fatalf("expected a multi-chunk grid at n=%d, got %d chunks", n, chunks)
	}
	for _, workers := range []int{2, 7} {
		got, gotChunks, err := ChunkedMaskSum(n, workers, makeTerm)
		if err != nil {
			t.Fatalf("ChunkedMaskSum(workers=%d): %v", workers, err)
		}
		if gotChunks != chunks {
			t.Fatalf("chunk grid changed with workers: %d vs %d", gotChunks, chunks)
		}
		if math.Float64bits(got) != math.Float64bits(ref) {
			t.Fatalf("workers=%d sum %v not bit-identical to serial %v", workers, got, ref)
		}
	}
	var acc Accumulator
	for mask := uint64(0); mask < 1<<n; mask++ {
		acc.Add(term(mask))
	}
	if math.Abs(ref-acc.Sum()) > 1e-10 {
		t.Fatalf("chunked sum %v far from compensated serial sum %v", ref, acc.Sum())
	}
}
