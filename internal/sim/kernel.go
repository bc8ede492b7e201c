package sim

import (
	"math/rand"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
)

// kernelRound delivers one round of messages and steps every correct
// node through the vectorized path:
//
//  1. Fan-out: correct nodes broadcast — their states are copied into
//     one shared receive base — while the adversary's per-receiver
//     choices for the ≤ f faulty slots are collected into the patch
//     matrix. Total copies: O(n·(f+1)) instead of the reference loop's
//     O(n²).
//  2. Stepping: algorithms taking the bit-sliced path
//     (alg.BitSliceStepper, provisioned planes) advance 64 correct
//     nodes per machine word from the transposed state and patch
//     planes; algorithms implementing alg.BatchStepper advance all
//     correct nodes in one devirtualized call, sharing the per-round
//     vote tallies across receivers; everything else falls back to the
//     per-node Step on the patched base.
//
// The adversary is consulted in exactly the reference order — receivers
// ascending, faulty senders ascending within each receiver — so
// strategies drawing from the shared adversary rng produce identical
// streams, and the whole round is bit-identical to the reference loop.
// Next states land in f.next for Frame.Advance to check and commit.
func kernelRound(f *Frame, a alg.Algorithm, batch alg.BatchStepper, sliced alg.BitSliceStepper, rngs []*rand.Rand) {
	n, space := len(f.states), f.space
	k := &f.kernel
	base := k.recv
	if sliced == nil {
		// The bit-sliced path reads states from the transposed planes
		// only, so the shared horizontal base is not materialised.
		copy(base, f.states)
	}
	p := &k.patches
	if rower, ok := f.adv.(adversary.RowMessenger); ok && len(p.Senders) > 0 {
		for v := 0; v < n; v++ {
			if f.faulty[v] {
				continue
			}
			row := p.Values[v]
			rower.MessageRow(&f.view, p.Senders, v, row)
			if sliced != nil {
				// ScatterRows reduces into [0, space) while transposing;
				// a separate O(n·f) pass here would be pure overhead, and
				// nothing else reads p.Values on the bit-sliced path.
				continue
			}
			for j := range row {
				// Branch instead of unconditional division: adversaries
				// almost always forge in-range states, and a hardware
				// divide per faulty slot per receiver is the single
				// hottest instruction of a cheap-algorithm round.
				if row[j] >= space {
					row[j] %= space
				}
			}
		}
	} else {
		for v := 0; v < n; v++ {
			if f.faulty[v] {
				continue
			}
			row := p.Values[v]
			for j, u := range p.Senders {
				row[j] = f.Message(u, v)
			}
		}
	}

	switch {
	case sliced != nil:
		if len(p.Senders) > 0 {
			k.planes.ScatterRows(p.Values, space)
		}
		k.planes.PackStates(f.states)
		sliced.StepAllSliced(f.next, &k.planes, p, rngs)
	case batch != nil:
		batch.StepAll(f.next, base, p, rngs)
	default:
		for v := 0; v < n; v++ {
			if f.faulty[v] {
				continue
			}
			p.Apply(base, v)
			f.next[v] = a.Step(v, base, rngs[v])
		}
	}
}

// kernelScratch is the broadcast simulator's own per-run working set:
// the receive vector, and for the vectorized kernel the ascending
// faulty-sender list, the per-receiver patch matrix, the bit-sliced
// planes and the fast-forward engine. It lives in the Frame, so it
// recycles with the rest of the working set.
type kernelScratch struct {
	recv      []alg.State
	faultyIdx []int
	patchFlat []alg.State
	patchRows [][]alg.State
	patches   alg.Patches

	// planes holds the transposed state and patch planes, provisioned
	// only for runs whose algorithm takes the bit-sliced path.
	planes alg.BitPlanes

	// ff is the fast-forward engine state (see fastforward.go); arm
	// and disarm reset it per run.
	ff ffEngine
}

// prepare sizes the receive vector and provisions the per-round patch
// matrix for the frame's fault mask: the ascending faulty-sender index
// list and one len(Senders) row per correct receiver, all carved out
// of a single pooled backing array.
func (s *kernelScratch) prepare(fr *Frame) {
	n := fr.N()
	if cap(s.recv) < n {
		s.recv = make([]alg.State, n)
	}
	s.recv = s.recv[:n]
	s.faultyIdx = s.faultyIdx[:0]
	for u, f := range fr.faulty {
		if f {
			s.faultyIdx = append(s.faultyIdx, u)
		}
	}
	nf := len(s.faultyIdx)
	if cap(s.patchFlat) < n*nf || s.patchFlat == nil {
		// Always at least capacity 1, so zero-length rows still carry a
		// non-nil pointer: nil rows are the "faulty receiver" marker of
		// the alg.Patches contract.
		size := n * nf
		if size == 0 {
			size = 1
		}
		s.patchFlat = make([]alg.State, size)
	}
	if cap(s.patchRows) < n {
		s.patchRows = make([][]alg.State, n)
	}
	s.patchRows = s.patchRows[:n]
	flat := s.patchFlat[:n*nf]
	for v := 0; v < n; v++ {
		if fr.faulty[v] {
			s.patchRows[v] = nil
			continue
		}
		s.patchRows[v] = flat[v*nf : (v+1)*nf : (v+1)*nf]
	}
	s.patches = alg.Patches{
		Faulty:  fr.faulty,
		Senders: s.faultyIdx,
		Values:  s.patchRows,
	}
}
