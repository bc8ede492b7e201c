package ecount

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/phaseking"
)

// The map-Tally derivation of Step, ReadClock and observedRegisters,
// kept as the reference the pooled scalar path is pinned to. The
// bodies are the pre-pooling methods verbatim, with two substitutions:
// the receiver is the parameter e, and the recursion into a nested
// ecount block counter goes through refStep too, so that every level
// of the reference tallies through maps.

func refStep(e *Counter, v int, recv []alg.State, rng *rand.Rand) alg.State {
	i := e.BlockOf(v)
	lo, size := e.blockRange(i)
	sub := e.sub[i]
	space := sub.StateSpace()
	subRecv := make([]alg.State, size)
	for j := 0; j < size; j++ {
		subRecv[j] = e.cdc.Field(recv[lo+j], fieldBlock) % space
	}
	var newSub alg.State
	if nested, ok := sub.(*Counter); ok {
		newSub = refStep(nested, v-lo, subRecv, rng)
	} else {
		newSub = sub.Step(v-lo, subRecv, rng)
	}

	// Observe both block clocks and resolve each sweep pointer: does
	// it match this round (its block's clock arrived exactly at the
	// pointed-to window offset), and what is its next value?
	var match [2]bool
	var instr [2]uint64
	var nextP [2]uint64
	own := recv[v]
	for b := 0; b < 2; b++ {
		p := e.cdc.Field(own, fieldP0+b)
		r, ok := refReadClock(e, b, recv)
		start := e.windowStart(b)
		if p < e.tau && ok && r == (start+p)%e.period {
			match[b] = true
			instr[b] = p
		}
		switch {
		case ok && r == (start+e.period-1)%e.period:
			// The clock sits one short of the window: arm.
			nextP[b] = 0
		case match[b] && p+1 < e.tau:
			nextP[b] = p + 1
		default:
			nextP[b] = e.pointerIdle()
		}
	}

	regs := e.Registers(own)
	switch {
	case match[0]:
		regs = e.cons.Step(regs, instr[0], refObservedRegisters(e, recv))
	case match[1]:
		regs = e.cons.Step(regs, instr[1], refObservedRegisters(e, recv))
	default:
		regs.A = phaseking.Increment(regs.A, e.c)
	}
	aField, dField := regs.Encode(e.c)
	return e.cdc.MustPack(newSub, nextP[0], nextP[1], aField, dField)
}

func refObservedRegisters(e *Counter, recv []alg.State) []uint64 {
	observed := make([]uint64, e.n)
	for u := 0; u < e.n; u++ {
		observed[u] = e.cdc.Field(recv[u], fieldA)
	}
	return observed
}

func refReadClock(e *Counter, i int, recv []alg.State) (uint64, bool) {
	lo, size := e.blockRange(i)
	sub := e.sub[i]
	space := sub.StateSpace()
	tally := alg.NewTally(size)
	for j := 0; j < size; j++ {
		s := e.cdc.Field(recv[lo+j], fieldBlock) % space
		tally.Add(uint64(sub.Output(j, s)))
	}
	val, ok := tally.Majority()
	if !ok || tally.Count(val) < e.quora[i] {
		return 0, false
	}
	return val % e.period, true
}

type namedCounter struct {
	name string
	a    *Counter
}

// derivationCounters builds both recursion shapes at every (n, f) of
// the derivation grid.
func derivationCounters(t testing.TB) []namedCounter {
	t.Helper()
	var out []namedCounter
	for _, g := range []struct{ n, f, c int }{{4, 1, 5}, {10, 3, 6}, {16, 3, 8}, {32, 3, 8}} {
		for _, b := range []struct {
			name  string
			build func(n, f, c int) (*Counter, error)
		}{{"balanced", New}, {"chain", NewChain}} {
			a, err := b.build(g.n, g.f, g.c)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, namedCounter{fmt.Sprintf("%s/n%d_f%d", b.name, g.n, g.f), a})
		}
	}
	return out
}

// derivationRecv draws a receive vector. Half the vectors are uniform
// words; the other half are near-stabilised — one shared state with a
// few uniform outliers, and sweep pointers set to match any block clock
// that reads inside its window — so that clock quorums form and the
// consensus branch runs. Either way about a quarter of the entries are
// raw words at or above StateSpace(), which the transition must reduce.
func derivationRecv(a *Counter, rng *rand.Rand) []alg.State {
	n := a.N()
	space := a.StateSpace()
	recv := make([]alg.State, n)
	for u := range recv {
		recv[u] = rng.Uint64() % space
	}
	if rng.Intn(2) == 0 {
		shared := recv[0]
		for u := range recv {
			if rng.Intn(8) != 0 {
				recv[u] = shared
			}
		}
		for b := 0; b < 2; b++ {
			r, ok := refReadClock(a, b, recv)
			start := a.windowStart(b)
			if !ok || r < start || r >= start+a.tau {
				continue
			}
			for u := range recv {
				recv[u] = a.cdc.WithField(recv[u], fieldP0+b, r-start)
			}
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
// ReadClock to the map-Tally derivation above, on seeded receive
// vectors (raw words at or above StateSpace() included), for both
// recursion shapes at (n, f) ∈ {(4,1), (10,3), (16,3), (32,3)}, with
// every node as the receiver.
func TestStepMatchesMapTallyDerivation(t *testing.T) {
	for _, tc := range derivationCounters(t) {
		a := tc.a
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(a.N()*100 + a.F())))
			sweeps := 0
			for trial := 0; trial < 64; trial++ {
				recv := derivationRecv(a, rng)
				for b := 0; b < 2; b++ {
					wr, wok := refReadClock(a, b, recv)
					gr, gok := a.ReadClock(b, recv)
					if gr != wr || gok != wok {
						t.Fatalf("trial %d: ReadClock(%d) = (%d, %v), derivation (%d, %v)", trial, b, gr, gok, wr, wok)
					}
				}
				for v := 0; v < a.N(); v++ {
					want := refStep(a, v, recv, nil)
					if got := a.Step(v, recv, nil); got != want {
						t.Fatalf("trial %d node %d: Step = %d, derivation %d (recv %v)", trial, v, got, want, recv)
					}
					if own, next := a.Registers(recv[v]), a.Registers(want); next.D != own.D || next.A != phaseking.Increment(own.A, a.c) {
						sweeps++
					}
				}
			}
			if sweeps == 0 {
				t.Fatal("the consensus branch never changed a register beyond the increment: the vectors do not exercise it")
			}
		})
	}
}

// TestStepConcurrent steps one shared Counter from 32 goroutines on
// distinct receive vectors, each several times, and requires the
// sequential results: pooled scratch must never leak between
// concurrent Steps.
func TestStepConcurrent(t *testing.T) {
	a, err := New(32, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	const workers, reps = 32, 4
	rng := rand.New(rand.NewSource(9))
	recvs := make([][]alg.State, workers)
	want := make([]alg.State, workers)
	for w := range recvs {
		recvs[w] = derivationRecv(a, rng)
		want[w] = a.Step(w, recvs[w], nil)
	}
	got := make([][reps]alg.State, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				got[w][i] = a.Step(w, recvs[w], nil)
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, s := range got[w] {
			if s != want[w] {
				t.Fatalf("goroutine %d rep %d: Step = %d, sequential %d", w, i, s, want[w])
			}
		}
	}
}

// TestStepAllocFree: once its scratch pool is warm, the scalar Step
// allocates nothing, at any recursion depth, on the increment and the
// consensus branch alike.
func TestStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts, so pooled scratch re-allocates")
	}
	for _, tc := range derivationCounters(t) {
		a := tc.a
		rng := rand.New(rand.NewSource(3))
		recvs := make([][]alg.State, 8)
		for i := range recvs {
			recvs[i] = derivationRecv(a, rng)
		}
		stepAll := func() {
			for _, recv := range recvs {
				for v := 0; v < a.N(); v++ {
					a.Step(v, recv, nil)
				}
			}
		}
		stepAll()
		if allocs := testing.AllocsPerRun(10, stepAll); allocs != 0 {
			t.Errorf("%s: %d warm Steps allocate %.1f objects, want 0", tc.name, len(recvs)*a.N(), allocs)
		}
	}
}
