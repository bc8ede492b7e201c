package boost

import (
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/counter"
	"github.com/synchcount/synchcount/internal/phaseking"
)

// The map-Tally derivation of Step and voteR, kept as the reference
// the pooled scalar path is pinned to. The bodies are the pre-pooling
// methods verbatim, with two substitutions: the receiver is the
// parameter b, and the recursion into a boosted base goes through
// refStep too, so that every level of the reference tallies through
// maps.

func refStep(b *Counter, v int, recv []alg.State, rng *rand.Rand) alg.State {
	i, j := b.BlockOf(v), b.IndexInBlock(v)

	// (1) Update A_i from the states of the own block.
	blockRecv := make([]alg.State, b.n)
	for jj := 0; jj < b.n; jj++ {
		blockRecv[jj] = b.cdc.Field(recv[i*b.n+jj], 0)
	}
	var newBase alg.State
	if nested, ok := b.base.(*Counter); ok {
		newBase = refStep(nested, j, blockRecv, rng)
	} else {
		newBase = b.base.Step(j, blockRecv, rng)
	}

	// (2) Three-level majority vote (Section 3.3).
	bigR := refVoteR(b, recv)

	// (3) Phase king instruction set I_R on the a/d registers.
	tally := alg.NewTally(b.nTot)
	for u := 0; u < b.nTot; u++ {
		tally.Add(b.Registers(recv[u]).A)
	}
	king := int(phaseking.KingOf(bigR))
	kingA := b.Registers(recv[king]).A
	regs := phaseking.Step(b.pkCfg, b.Registers(recv[v]), bigR, tally, kingA)

	aField, dField := regs.Encode(b.cOut)
	return b.cdc.MustPack(newBase, aField, dField)
}

func refVoteR(b *Counter, recv []alg.State) uint64 {
	blockVotes := make([]uint64, b.k)
	tally := alg.NewTally(b.n)
	for i := 0; i < b.k; i++ {
		tally.Reset()
		for j := 0; j < b.n; j++ {
			_, _, ptr := b.Leader(i*b.n+j, recv[i*b.n+j])
			tally.Add(ptr)
		}
		v, _ := tally.Majority() // defaults to 0 without absolute majority
		blockVotes[i] = v
	}
	bigB := refMajority(blockVotes)
	if bigB >= uint64(b.k) {
		bigB = 0 // honest pointers lie in [m] ⊆ [k]; clamp garbage
	}
	tally.Reset()
	for j := 0; j < b.n; j++ {
		u := int(bigB)*b.n + j
		r, _, _ := b.Leader(u, recv[u])
		tally.Add(r)
	}
	bigR, _ := tally.Majority()
	return bigR % b.tau
}

// refMajority is the map-Tally alg.Majority the derivation called.
func refMajority(values []uint64) uint64 {
	t := alg.NewTally(len(values))
	for _, v := range values {
		t.Add(v)
	}
	v, _ := t.Majority()
	return v
}

// derivationStacks returns the boosted shapes the pooled path is
// pinned on: A(4,1) over single-node trivial blocks, a two-level stack
// whose base is itself boosted, and a boost of 4-node MaxStep blocks.
func derivationStacks(t testing.TB) []struct {
	name string
	b    *Counter
} {
	t.Helper()
	base, err := counter.NewTrivial(2304)
	if err != nil {
		t.Fatal(err)
	}
	one, err := New(base, Params{K: 4, F: 1, C: 960})
	if err != nil {
		t.Fatal(err)
	}
	two, err := New(one, Params{K: 3, F: 3, C: 7})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := counter.NewMaxStep(4, 384)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := New(ms, Params{K: 3, F: 0, C: 6})
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		b    *Counter
	}{{"A41", one}, {"two-level", two}, {"maxstep-blocks", blocks}}
}

// derivationRecv draws a receive vector. Half the vectors are uniform
// words; the other half share one base state (so every block votes
// the same leader and round) with registers drawn mostly from one
// value, else another or ∞, so the phase king thresholds bite. Either way about a
// quarter of the entries are raw words at or above StateSpace().
func derivationRecv(b *Counter, rng *rand.Rand) []alg.State {
	n := b.N()
	space := b.StateSpace()
	recv := make([]alg.State, n)
	for u := range recv {
		recv[u] = rng.Uint64() % space
	}
	if rng.Intn(2) == 0 {
		shared := b.cdc.Field(recv[0], 0)
		a0, a1 := rng.Uint64()%b.cOut, rng.Uint64()%b.cOut
		regA := []uint64{a0, a0, a0, a0, a1, b.cOut} // field value C decodes to ∞
		for u := range recv {
			if rng.Intn(8) == 0 {
				continue
			}
			s := b.cdc.WithField(recv[u], 0, shared)
			recv[u] = b.cdc.WithField(s, 1, regA[rng.Intn(len(regA))])
		}
	}
	for u := range recv {
		if rng.Intn(4) == 0 {
			recv[u] += space * (1 + rng.Uint64()%(^uint64(0)/space-1))
		}
	}
	return recv
}

// TestStepMatchesMapTallyDerivation pins the pooled scalar Step and
// VoteR to the map-Tally derivation above, on seeded receive vectors
// (raw words at or above StateSpace() included), with every node as
// the receiver.
func TestStepMatchesMapTallyDerivation(t *testing.T) {
	for _, tc := range derivationStacks(t) {
		b := tc.b
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(b.N())))
			for trial := 0; trial < 64; trial++ {
				recv := derivationRecv(b, rng)
				if got, want := b.VoteR(recv), refVoteR(b, recv); got != want {
					t.Fatalf("trial %d: VoteR = %d, derivation %d", trial, got, want)
				}
				for v := 0; v < b.N(); v++ {
					if got, want := b.Step(v, recv, nil), refStep(b, v, recv, nil); got != want {
						t.Fatalf("trial %d node %d: Step = %d, derivation %d (recv %v)", trial, v, got, want, recv)
					}
				}
			}
		})
	}
}

// TestStepAllocFree: once its scratch pool is warm, the scalar Step
// allocates nothing, through every boosted level.
func TestStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts, so pooled scratch re-allocates")
	}
	for _, tc := range derivationStacks(t) {
		b := tc.b
		rng := rand.New(rand.NewSource(3))
		recvs := make([][]alg.State, 8)
		for i := range recvs {
			recvs[i] = derivationRecv(b, rng)
		}
		stepAll := func() {
			for _, recv := range recvs {
				for v := 0; v < b.N(); v++ {
					b.Step(v, recv, nil)
				}
			}
		}
		stepAll()
		if allocs := testing.AllocsPerRun(10, stepAll); allocs != 0 {
			t.Errorf("%s: %d warm Steps allocate %.1f objects, want 0", tc.name, len(recvs)*b.N(), allocs)
		}
	}
}
