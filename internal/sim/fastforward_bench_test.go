package sim_test

import (
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/ecount"
	"github.com/synchcount/synchcount/internal/sim"
)

// The BenchmarkFF_* pairs measure the periodicity-aware fast-forward
// engine against the plain vectorized kernel on identical long-horizon
// RunFull configurations — the verification-tail regime where the
// engine concludes the cycle analytically instead of simulating it.
// They feed the BENCH_<pr>.json trajectory artifacts (`make
// bench-json`) and the CI bench-smoke gate (benchjson -min-ff-speedup),
// which fails when the engine's ns/trial advantage drops below the
// guard on any pair.
//
// The cells are 1508.02535 stacks on purpose: their block clocks run
// mod 4τ, so the global configuration cycle is short (λ = 360 at
// n=16 f=3, λ = 1080 at n=64 f=7) and the partitioned-stack detector
// confirms it a few percent past its first repeat, well inside μ + 2λ
// rounds. The source paper's boost stacks cycle with the full
// leader-wheel period τ(2m)^k (≈ 34560 for the Figure 2 stack), so
// fast-forward only engages on horizons past about μ + λ there — see
// the README's Fast-forward section.
func benchFF(b *testing.B, a alg.Algorithm, adv adversary.Adversary, faults []int, rounds uint64, fastforward bool) {
	b.Helper()
	cfg := sim.Config{
		Alg:           a,
		Faulty:        faults,
		Adv:           adv,
		Seed:          5,
		MaxRounds:     rounds,
		StopEarly:     false,
		NoFastForward: !fastforward,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunFull(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rounds), "ns/round")
}

func benchFFECount(b *testing.B, n, f int) alg.Algorithm {
	b.Helper()
	a, err := ecount.New(n, f, 8)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

func benchFFECountChain(b *testing.B, n, f int) alg.Algorithm {
	b.Helper()
	a, err := ecount.NewChain(n, f, 8)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// The headline long-horizon cell: a 2^14-round RunFull verification
// tail whose cycle (λ = 360, first repeat at round 426) the engine
// confirms at round 448 and concludes analytically.
func BenchmarkFF_Off_ECount_n16_f3_RunFull16k(b *testing.B) {
	benchFF(b, benchFFECount(b, 16, 3), adversary.SplitVote{}, benchSpread(16, 3), 1<<14, false)
}

func BenchmarkFF_On_ECount_n16_f3_RunFull16k(b *testing.B) {
	benchFF(b, benchFFECount(b, 16, 3), adversary.SplitVote{}, benchSpread(16, 3), 1<<14, true)
}

// The chain recursion at the same cell: deeper stack, same short block
// clocks.
func BenchmarkFF_Off_ECountChain_n16_f3_RunFull16k(b *testing.B) {
	benchFF(b, benchFFECountChain(b, 16, 3), adversary.SplitVote{}, benchSpread(16, 3), 1<<14, false)
}

func BenchmarkFF_On_ECountChain_n16_f3_RunFull16k(b *testing.B) {
	benchFF(b, benchFFECountChain(b, 16, 3), adversary.SplitVote{}, benchSpread(16, 3), 1<<14, true)
}

// The large-network cell (λ = 1080, first repeat at round 1,218,
// confirmed at 1,239): 2^15 rounds so the analytic tail dominates.
func BenchmarkFF_Off_ECount_n64_f7_RunFull32k(b *testing.B) {
	benchFF(b, benchFFECount(b, 64, 7), adversary.SplitVote{}, benchSpread(64, 7), 1<<15, false)
}

func BenchmarkFF_On_ECount_n64_f7_RunFull32k(b *testing.B) {
	benchFF(b, benchFFECount(b, 64, 7), adversary.SplitVote{}, benchSpread(64, 7), 1<<15, true)
}
