package main

import (
	"fmt"
	"math/rand"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/pull"
)

// Capability bits: the optional interfaces the engines probe for with
// type assertions. A trace wrapper must expose exactly the wrapped
// value's set, or it would silently change which kernel path runs.
const (
	capDeterministic = 1 << iota
	capBound
	capBatch
	capSliced
	capConfig
	capPullBatch
	capRow
	capSnapshot
)

// algCaps returns the optional interfaces a broadcast-model algorithm
// implements.
func algCaps(a alg.Algorithm) int {
	c := 0
	if _, ok := a.(alg.Deterministic); ok {
		c |= capDeterministic
	}
	if _, ok := a.(alg.Bound); ok {
		c |= capBound
	}
	if _, ok := a.(alg.BatchStepper); ok {
		c |= capBatch
	}
	if _, ok := a.(alg.BitSliceStepper); ok {
		c |= capSliced
	}
	if _, ok := a.(alg.ConfigCapturer); ok {
		c |= capConfig
	}
	return c
}

// pullCaps returns the optional interfaces a pulling-model algorithm
// implements.
func pullCaps(a pull.Algorithm) int {
	c := 0
	if _, ok := a.(alg.Deterministic); ok {
		c |= capDeterministic
	}
	if _, ok := a.(pull.BatchStepper); ok {
		c |= capPullBatch
	}
	return c
}

// advCaps returns the optional interfaces an adversary implements.
func advCaps(a adversary.Adversary) int {
	c := 0
	if _, ok := a.(adversary.RowMessenger); ok {
		c |= capRow
	}
	if _, ok := a.(adversary.Snapshottable); ok {
		c |= capSnapshot
	}
	return c
}

// algCore times Step and forwards the rest of alg.Algorithm.
type algCore struct {
	a   alg.Algorithm
	rec recorder
}

func (w *algCore) N() int                           { return w.a.N() }
func (w *algCore) F() int                           { return w.a.F() }
func (w *algCore) C() int                           { return w.a.C() }
func (w *algCore) StateSpace() uint64               { return w.a.StateSpace() }
func (w *algCore) Output(node int, s alg.State) int { return w.a.Output(node, s) }

func (w *algCore) Step(node int, recv []alg.State, rng *rand.Rand) alg.State {
	start := w.rec.now()
	s := w.a.Step(node, recv, rng)
	w.rec.record(kindStep, start, w.rec.now())
	return s
}

type detCap struct{ d alg.Deterministic }

func (c detCap) Deterministic() bool { return c.d.Deterministic() }

type boundCap struct{ b alg.Bound }

func (c boundCap) StabilisationBound() uint64 { return c.b.StabilisationBound() }

type batchCap struct {
	b   alg.BatchStepper
	rec recorder
}

func (c batchCap) StepAll(next, base []alg.State, p *alg.Patches, rngs []*rand.Rand) {
	start := c.rec.now()
	c.b.StepAll(next, base, p, rngs)
	c.rec.record(kindStepAll, start, c.rec.now())
}

type slicedCap struct {
	s   alg.BitSliceStepper
	rec recorder
}

func (c slicedCap) SliceBits() int { return c.s.SliceBits() }

func (c slicedCap) StepAllSliced(next []alg.State, pl *alg.BitPlanes, p *alg.Patches, rngs []*rand.Rand) {
	start := c.rec.now()
	c.s.StepAllSliced(next, pl, p, rngs)
	c.rec.record(kindStepAllSliced, start, c.rec.now())
}

// The capability sets of the registry's deterministic stacks: the
// constructions (ecount, ecount-chain, theorem2, corollary1, figure2)
// and the bit-sliceable baselines (trivial, maxstep).
type (
	algDetBoundBatch struct {
		*algCore
		detCap
		boundCap
		batchCap
	}
	algDetBoundSliced struct {
		*algCore
		detCap
		boundCap
		batchCap
		slicedCap
	}
)

// wrapAlg returns a on a trace wrapper with the same optional
// interfaces, recording its transitions into rec. A capability set no
// wrapper covers is an error, never a silently narrowed wrapper.
func wrapAlg(a alg.Algorithm, rec recorder) (alg.Algorithm, error) {
	core := &algCore{a: a, rec: rec}
	switch algCaps(a) {
	case capDeterministic | capBound | capBatch:
		return algDetBoundBatch{core, detCap{a.(alg.Deterministic)}, boundCap{a.(alg.Bound)}, batchCap{a.(alg.BatchStepper), rec}}, nil
	case capDeterministic | capBound | capBatch | capSliced:
		s := a.(alg.BitSliceStepper)
		return algDetBoundSliced{core, detCap{a.(alg.Deterministic)}, boundCap{a.(alg.Bound)}, batchCap{s, rec}, slicedCap{s, rec}}, nil
	default:
		return nil, fmt.Errorf("no trace wrapper for an algorithm with capability set %#x", algCaps(a))
	}
}

// pullCore times nothing itself; the pulling kernel only calls
// StepAll on batch algorithms.
type pullCore struct{ a pull.Algorithm }

func (w pullCore) N() int                           { return w.a.N() }
func (w pullCore) F() int                           { return w.a.F() }
func (w pullCore) C() int                           { return w.a.C() }
func (w pullCore) StateSpace() uint64               { return w.a.StateSpace() }
func (w pullCore) Output(node int, s alg.State) int { return w.a.Output(node, s) }

func (w pullCore) Step(node int, own alg.State, p pull.Puller, rng *rand.Rand) alg.State {
	return w.a.Step(node, own, p, rng)
}

type pullBatchCap struct {
	b   pull.BatchStepper
	rec recorder
}

func (c pullBatchCap) PullsPerRound() uint64 { return c.b.PullsPerRound() }

func (c pullBatchCap) StepAll(env *pull.BatchEnv) {
	start := c.rec.now()
	c.b.StepAll(env)
	c.rec.record(kindPullStepAll, start, c.rec.now())
}

type pullDetBatch struct {
	pullCore
	detCap
	pullBatchCap
}

// wrapPull is wrapAlg for pulling-model algorithms.
func wrapPull(a pull.Algorithm, rec recorder) (pull.Algorithm, error) {
	if pullCaps(a) != capDeterministic|capPullBatch {
		return nil, fmt.Errorf("no trace wrapper for a pull algorithm with capability set %#x", pullCaps(a))
	}
	return pullDetBatch{pullCore{a}, detCap{a.(alg.Deterministic)}, pullBatchCap{a.(pull.BatchStepper), rec}}, nil
}

// advCore counts and times per-pair Message calls in aggregate.
type advCore struct {
	a   adversary.Adversary
	rec recorder
}

func (w *advCore) Name() string { return w.a.Name() }

func (w *advCore) Message(v *adversary.View, from, to int) alg.State {
	start := w.rec.now()
	s := w.a.Message(v, from, to)
	w.rec.message(w.rec.now() - start)
	return s
}

type rowCap struct {
	r   adversary.RowMessenger
	rec recorder
}

func (c rowCap) MessageRow(v *adversary.View, senders []int, to int, row []alg.State) {
	start := c.rec.now()
	c.r.MessageRow(v, senders, to, row)
	c.rec.record(kindMessageRow, start, c.rec.now())
}

type snapCap struct{ s adversary.Snapshottable }

func (c snapCap) SnapshotPeriod() uint64 { return c.s.SnapshotPeriod() }

// advRowSnap covers every built-in strategy but the greedy lookahead,
// which is stateful and so neither snapshottable nor run here.
type advRowSnap struct {
	*advCore
	rowCap
	snapCap
}

// wrapAdv returns a on a trace wrapper with the same optional
// interfaces (and so the same fast-forward period), recording into rec.
func wrapAdv(a adversary.Adversary, rec recorder) (adversary.Adversary, error) {
	if advCaps(a) != capRow|capSnapshot {
		return nil, fmt.Errorf("no trace wrapper for adversary %s with capability set %#x", a.Name(), advCaps(a))
	}
	return advRowSnap{&advCore{a: a, rec: rec}, rowCap{a.(adversary.RowMessenger), rec}, snapCap{a.(adversary.Snapshottable)}}, nil
}
