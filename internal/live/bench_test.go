package live

import (
	"context"
	"testing"

	"github.com/synchcount/synchcount/internal/registry"
)

// benchLive drives full seeded runs of a fixed horizon per iteration.
// cmd/benchjson pairs the Replay_/Optimized_ variants and bench-smoke
// gates the ratio: the sequential replay oracle is the same-machine
// yardstick, so a slowdown of the concurrent engine relative to it
// fails the gate whatever the machine's absolute speed.
//
// The gated cells run maxstep, whose Step is allocation-free and
// near-instant, so the pair measures the round engine — barriers,
// routing, decoding, arena — and not the algorithm riding it. The
// ungated ecount cell (BenchmarkLive_EndToEnd_*) reports the end-to-end
// soak stack instead, where ecount's own Step dominates both engines.
func benchLive(b *testing.B, run engine, name string, n, f int, kinds []string) {
	a, err := registry.Build(name, registry.Params{N: n, F: f, C: 8})
	if err != nil {
		b.Fatal(err)
	}
	horizon := uint64(256)
	if n >= 128 {
		horizon = 128 // the replay n=128 cell pays n² decodes per round
	}
	newSched := func() *Schedule {
		if kinds == nil {
			return nil
		}
		sched, err := NewSchedule(ChaosConfig{
			Seed: 1, N: n, Kinds: kinds,
			Warmup: 16, Bursts: 2, BurstLen: 8, Gap: (horizon - 32) / 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		horizon = sched.Rounds
		return sched
	}
	var rounds uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := run(Config{Alg: a, Seed: 1, Rounds: horizon, Schedule: newSched()})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Rounds != horizon {
			b.Fatalf("ran %d rounds, want %d", rep.Rounds, horizon)
		}
		rounds += rep.Rounds
	}
	b.StopTimer()
	if rounds > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
	}
}

func BenchmarkLive_Replay_FaultFree_n32(b *testing.B) {
	benchLive(b, replay, "maxstep", 32, 0, nil)
}
func BenchmarkLive_Optimized_FaultFree_n32(b *testing.B) {
	benchLive(b, concurrent, "maxstep", 32, 0, nil)
}

func BenchmarkLive_Replay_CrashPartition_n32(b *testing.B) {
	benchLive(b, replay, "maxstep", 32, 0, []string{"crash", "partition"})
}
func BenchmarkLive_Optimized_CrashPartition_n32(b *testing.B) {
	benchLive(b, concurrent, "maxstep", 32, 0, []string{"crash", "partition"})
}

// The n=128 soak cell: where replay's per-receiver decoding (n-1 CRC
// checks per broadcast) costs most.
func BenchmarkLive_Replay_FaultFree_n128(b *testing.B) {
	benchLive(b, replay, "maxstep", 128, 0, nil)
}
func BenchmarkLive_Optimized_FaultFree_n128(b *testing.B) {
	benchLive(b, concurrent, "maxstep", 128, 0, nil)
}

// End-to-end pair on the soak stack (ecount n=32 f=3 c=8): not paired
// by the benchjson live gate (its Step cost — codec field extraction
// and vote tallies — dominates both engines identically), reported so
// the trajectory keeps an honest end-to-end number.
func BenchmarkLive_EndToEndReplay_Ecount_n32(b *testing.B) {
	benchLive(b, replay, "ecount", 32, 3, nil)
}
func BenchmarkLive_EndToEndOpt_Ecount_n32(b *testing.B) {
	benchLive(b, concurrent, "ecount", 32, 3, nil)
}

// The arena contract, pinned: a fault-free optimized round allocates
// (approximately) nothing once the ring is warm. Two horizons differing
// by 256 rounds cancel all per-run setup (goroutines, channels, node
// scratch), leaving the pure per-round marginal cost. maxstep prices
// the round engine alone; ecount n=32 f=3 c=8, the soak stack, adds
// its pooled scalar Step, which must not allocate either. The ecount
// row skips under -race, whose runtime drops sync.Pool puts.
func TestOptimizedFaultFreeAllocsPerRound(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n, f, c int
		pooled  bool
	}{
		{"maxstep", 8, 0, 8, false},
		{"ecount", 32, 3, 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.pooled && raceEnabled {
				t.Skip("the race runtime drops sync.Pool puts, so pooled Step scratch re-allocates")
			}
			a := buildAlg(t, tc.name, tc.n, tc.f, tc.c)
			measure := func(rounds uint64) float64 {
				return testing.AllocsPerRun(5, func() {
					rt, err := New(Config{Alg: a, Seed: 5, Rounds: rounds, Window: 12})
					if err != nil {
						t.Fatal(err)
					}
					rep, err := rt.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if rep.Rounds != rounds {
						t.Fatalf("ran %d rounds, want %d", rep.Rounds, rounds)
					}
				})
			}
			short := measure(64)
			long := measure(320)
			perRound := (long - short) / 256
			if perRound > 2 {
				t.Errorf("optimized fault-free path allocates %.2f objects/round (runs of 64 vs 320 rounds: %.0f vs %.0f allocs) — the arena budget is ~0, allowing 2 for runtime noise", perRound, short, long)
			}
		})
	}
}
