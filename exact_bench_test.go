package repro

// Benchmarks for the exact-evaluation backend, tracked in the
// BENCH_sim.json perf trajectory (pre-exact vs post-exact snapshots) and
// gated by `make bench-check`. The first three pin the n = 10, δ = n/3
// workload: the general threshold vector (Theorem 5.1), its heterogeneous
// generalization, and the heterogeneous oblivious sum.
// BenchmarkExactHeteroSymmetric has no recorded snapshot yet; it times the
// n = 13 symmetric heterogeneous evaluation that the service runs.

import (
	"testing"

	"repro/internal/nonoblivious"
	"repro/internal/oblivious"
)

// exactBenchN is the player count of the tracked exact workloads.
const exactBenchN = 10

func exactBenchThresholds() []float64 {
	ths := make([]float64, exactBenchN)
	for i := range ths {
		ths[i] = 0.4 + 0.03*float64(i)
	}
	return ths
}

func exactBenchPi() []float64 {
	pi := make([]float64, exactBenchN)
	for i := range pi {
		pi[i] = 0.5 + 0.05*float64(i)
	}
	return pi
}

func exactBenchAlphas() []float64 {
	alphas := make([]float64, exactBenchN)
	for i := range alphas {
		alphas[i] = 0.3 + 0.04*float64(i)
	}
	return alphas
}

// BenchmarkExactNonoblivious times the exact Theorem 5.1 evaluation of a
// general 10-player threshold vector — the engine Exact backend's hot
// path for threshold rules on homogeneous instances.
func BenchmarkExactNonoblivious(b *testing.B) {
	ths := exactBenchThresholds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nonoblivious.WinningProbability(ths, float64(exactBenchN)/3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactHetero times the heterogeneous Theorem 5.1
// generalization (conditional Lemma 2.4/2.7 subset sums) at n = 10.
func BenchmarkExactHetero(b *testing.B) {
	ths := exactBenchThresholds()
	pi := exactBenchPi()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nonoblivious.WinningProbabilityPi(ths, pi, float64(exactBenchN)/3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactObliviousHetero times the heterogeneous Theorem 4.1
// generalization (per-subset Lemma 2.4 CDF products) at n = 10.
func BenchmarkExactObliviousHetero(b *testing.B) {
	alphas := exactBenchAlphas()
	pi := exactBenchPi()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oblivious.WinningProbabilityPi(alphas, pi, float64(exactBenchN)/3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactHeteroSymmetric times the heterogeneous Theorem 5.1
// generalization for a symmetric rule at n = 13 — the shape of a served
// heterogeneous threshold request: π ∈ [0.5, 1], β = 0.5, δ = n/3. One
// shared threshold makes the bin-1 side a ranked sum-over-subsets table
// rather than a walk per outer set.
func BenchmarkExactHeteroSymmetric(b *testing.B) {
	const n = 13
	ths := make([]float64, n)
	pi := make([]float64, n)
	for i := range ths {
		ths[i] = 0.5
		pi[i] = 0.5 + 0.5*float64(i)/(n-1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nonoblivious.WinningProbabilityPi(ths, pi, float64(n)/3); err != nil {
			b.Fatal(err)
		}
	}
}
