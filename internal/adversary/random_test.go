package adversary

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
)

// literalRandom is Random's value derivation written out literally: a
// fresh source seeded from (round, sender, base seed), one uniform
// draw. Every Random trajectory in the repository depends on this
// stream, so the View's broadcast cache must reproduce it exactly.
func literalRandom(round uint64, from int, baseSeed int64, space uint64) alg.State {
	seed := int64(round)*1000003 + int64(from)*7919 + baseSeed
	return alg.UniformState(rand.New(rand.NewSource(seed)), space)
}

// TestRandomMatchesDerivation pins Random's Message and MessageRow to
// the literal per-(round, sender) derivation on one View whose round,
// base seed and state space all change underneath the cache: rounds
// are visited in order, then revisited and out of order; each phase
// changes either the base seed (through SetBaseSeed) or the space, and
// starts on the round the previous one ended on, so a cache that
// missed either change would serve the previous phase's values.
func TestRandomMatchesDerivation(t *testing.T) {
	const n = 9
	const seedA, seedB = int64(11), int64(-4242)
	phases := []struct {
		space uint64
		seed  int64
	}{
		{12, seedA},
		{12, seedB},                // base seed change on the same round
		{2, seedB},                 // space change on the same round
		{math.MaxInt64 + 6, seedB}, // 2^63+5: the Uint64 rejection path
		{math.MaxInt64 + 6, seedA},
		{12, seedA}, // back to the first phase's values
	}
	rounds := []uint64{0, 1, 2, 3, 4, 5, 3, 0, 5, 1, 1 << 40, 1 << 40, 0}
	receivers := []int{0, 4, 2, n - 1}

	v := &View{
		States: make([]alg.State, n),
		Faulty: []bool{false, true, false, false, true, false, true, false, true},
		Rng:    rand.New(rand.NewSource(1)),
	}
	senders := rowSenders(v)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	row := make([]alg.State, n)
	for pi, ph := range phases {
		v.Space = ph.space
		if pi == 0 || ph.seed != phases[pi-1].seed {
			v.SetBaseSeed(ph.seed)
		}
		for ri, r := range rounds {
			v.Round = r
			name := fmt.Sprintf("phase%d/space=%d/seed=%d/round=%d", pi, ph.space, ph.seed, r)
			// Alternate which entry point fills the cache first.
			rowFirst := ri%2 == 0
			for _, to := range receivers {
				if rowFirst {
					checkRow(t, name, v, senders, to, row, ph.seed)
				}
				for from := 0; from < n; from++ {
					want := literalRandom(r, from, ph.seed, ph.space)
					if got := (Random{}).Message(v, from, to); got != want {
						t.Fatalf("%s: Message(from=%d, to=%d) = %d, want %d", name, from, to, got, want)
					}
				}
				if !rowFirst {
					checkRow(t, name, v, all, to, row, ph.seed)
				}
			}
		}
	}
}

func checkRow(t *testing.T, name string, v *View, senders []int, to int, row []alg.State, baseSeed int64) {
	t.Helper()
	row = row[:len(senders)]
	(Random{}).MessageRow(v, senders, to, row)
	for j, from := range senders {
		if want := literalRandom(v.Round, from, baseSeed, v.Space); row[j] != want {
			t.Fatalf("%s: MessageRow(to=%d)[from=%d] = %d, want %d", name, to, from, row[j], want)
		}
	}
}
