package sim_test

import (
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/ecount"
	"github.com/synchcount/synchcount/internal/sim"
)

// TestRandomAdversaryAllocsFlat gates allocations per round under the
// Random adversary, which bypasses fast-forward so every round runs
// the vectorized kernel and fills one adversary row per receiver. A
// full run may allocate a constant set-up cost, but nothing per round:
// the run allocations at horizon 1024 may exceed those at 128 by at
// most 2.
func TestRandomAdversaryAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch, so run allocations grow with the horizon")
	}
	a, err := ecount.New(16, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(rounds uint64) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := sim.RunFull(sim.Config{
				Alg: a, Faulty: spreadFaults(16, 3), Adv: adversary.Random{},
				Seed: 9, MaxRounds: rounds,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(128), allocs(1024)
	if long-short > 2 {
		t.Errorf("Random-adversary RunFull allocations grow with the horizon: %.1f at 128 rounds, %.1f at 1024", short, long)
	}
}

// TestRandomMessageRowAllocFree requires Random.MessageRow to allocate
// nothing once the round's broadcasts are drawn: every receiver row
// after the first reads the View's round-scoped cache.
func TestRandomMessageRowAllocFree(t *testing.T) {
	const n = 16
	faulty := make([]bool, n)
	senders := spreadFaults(n, 3)
	for _, i := range senders {
		faulty[i] = true
	}
	v := &adversary.View{
		States: make([]alg.State, n), Faulty: faulty, Space: 1 << 20,
		Rng: rand.New(rand.NewSource(1)), Round: 7,
	}
	v.SetBaseSeed(3)
	row := make([]alg.State, len(senders))
	adversary.Random{}.MessageRow(v, senders, 0, row)
	to := 0
	if got := testing.AllocsPerRun(100, func() {
		to = (to + 1) % n
		adversary.Random{}.MessageRow(v, senders, to, row)
	}); got != 0 {
		t.Errorf("Random.MessageRow allocates %.1f times per row after the round's first call, want 0", got)
	}
}
