package main

import (
	"context"
	"errors"
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/pull"
	"github.com/synchcount/synchcount/internal/registry"
	"github.com/synchcount/synchcount/internal/sim"
)

// workloadStacks builds every workload's algorithms and adversaries.
func workloadStacks(t *testing.T) (algs []alg.Algorithm, advs []adversary.Adversary, gossip *pull.Gossip) {
	t.Helper()
	r, _, err := setupLive(1)
	if err != nil {
		t.Fatal(err)
	}
	algs = append(algs, r.(*liveRunner).a)
	for _, s := range []simSpec{verifyFF, kernelRngAdv} {
		r, _, err := s.setup(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range r.(*simRunner).scen {
			algs = append(algs, sc.a)
			advs = append(advs, sc.adv)
		}
	}
	r, _, err = setupPull(1)
	if err != nil {
		t.Fatal(err)
	}
	pr := r.(*pullRunner)
	return algs, append(advs, pr.adv), pr.g
}

func TestWrappersExposeExactlyTheWrappedInterfaces(t *testing.T) {
	algs, advs, gossip := workloadStacks(t)
	g := newTracer().newGroup()
	maxstep, err := registry.Build("maxstep", registry.Params{N: 8, C: 4})
	if err != nil {
		t.Fatal(err)
	}
	if algCaps(maxstep)&capSliced == 0 {
		t.Fatal("maxstep no longer takes the bit-sliced path; pick another sliceable stack")
	}
	algs = append(algs, maxstep)
	for _, a := range algs {
		w, err := wrapAlg(a, g)
		if err != nil {
			t.Fatal(err)
		}
		if algCaps(w) != algCaps(a) {
			t.Errorf("%T n=%d: wrapper capabilities %#x, wrapped %#x", a, a.N(), algCaps(w), algCaps(a))
		}
		if alg.IsDeterministic(w) != alg.IsDeterministic(a) {
			t.Errorf("%T: Deterministic differs", a)
		}
		if b, ok := a.(alg.Bound); ok && w.(alg.Bound).StabilisationBound() != b.StabilisationBound() {
			t.Errorf("%T: StabilisationBound differs", a)
		}
		if s, ok := a.(alg.BitSliceStepper); ok && w.(alg.BitSliceStepper).SliceBits() != s.SliceBits() {
			t.Errorf("%T: SliceBits differs", a)
		}
		if w.N() != a.N() || w.F() != a.F() || w.C() != a.C() || w.StateSpace() != a.StateSpace() {
			t.Errorf("%T: parameters differ", a)
		}
	}
	for _, a := range advs {
		w, err := wrapAdv(a, g)
		if err != nil {
			t.Fatal(err)
		}
		if advCaps(w) != advCaps(a) {
			t.Errorf("%s: wrapper capabilities %#x, wrapped %#x", a.Name(), advCaps(w), advCaps(a))
		}
		if w.Name() != a.Name() {
			t.Errorf("%s: wrapper is named %s", a.Name(), w.Name())
		}
		wp, wok := adversary.SnapshotPeriodOf(w)
		ap, aok := adversary.SnapshotPeriodOf(a)
		if wp != ap || wok != aok {
			t.Errorf("%s: snapshot period %d/%v, wrapped %d/%v", a.Name(), wp, wok, ap, aok)
		}
	}
	w, err := wrapPull(gossip, g)
	if err != nil {
		t.Fatal(err)
	}
	if pullCaps(w) != pullCaps(gossip) {
		t.Errorf("gossip: wrapper capabilities %#x, wrapped %#x", pullCaps(w), pullCaps(gossip))
	}
	if w.(pull.BatchStepper).PullsPerRound() != gossip.PullsPerRound() {
		t.Error("gossip: PullsPerRound differs")
	}
	if w.(alg.Deterministic).Deterministic() != gossip.Deterministic() {
		t.Error("gossip: Deterministic differs")
	}
}

// bareAlg hides every optional interface of the algorithm it holds.
type bareAlg struct{ alg.Algorithm }

func TestWrapAlgRefusesUncoveredCapabilitySets(t *testing.T) {
	algs, _, _ := workloadStacks(t)
	if _, err := wrapAlg(bareAlg{algs[0]}, newTracer().newGroup()); err == nil {
		t.Fatal("an algorithm with no optional interfaces has no wrapper and must be refused, not narrowed")
	}
	bare := struct{ adversary.Adversary }{adversary.Silent{}}
	if _, err := wrapAdv(bare, newTracer().newGroup()); err == nil {
		t.Fatal("an adversary with no optional interfaces has no wrapper and must be refused, not widened")
	}
}

func TestAbortHookPollsTheTrialContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range []simSpec{verifyFF, kernelRngAdv} {
		r, _, err := s.setup(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range []*tracer{nil, newTracer()} {
			sb := r.(*simRunner).prepare(5, 1, tr)
			if _, err := sb.camp.Scenarios[0].Run(ctx, 0, 5); !errors.Is(err, sim.ErrAborted) {
				t.Fatalf("sim trial under a cancelled context (traced %v): err = %v, want sim.ErrAborted", tr != nil, err)
			}
			if sb.slots[0].polls != 1 {
				t.Fatalf("the aborted trial polled %d times, want 1", sb.slots[0].polls)
			}
		}
	}
	r, _, err := setupPull(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*tracer{nil, newTracer()} {
		pb, err := r.(*pullRunner).prepare(5, tr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pb.camp.Scenarios[0].Run(ctx, 0, 5); !errors.Is(err, pull.ErrAborted) {
			t.Fatalf("pull trial under a cancelled context (traced %v): err = %v, want pull.ErrAborted", tr != nil, err)
		}
	}
}
