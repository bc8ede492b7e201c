package pull

import (
	"fmt"
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/counter"
	"github.com/synchcount/synchcount/internal/ecount"
	"github.com/synchcount/synchcount/internal/sim"
)

// TestBroadcastEmbeddingMatchesSim pins the two engines' seed streams
// to each other: the broadcast simulator running A and the pulling
// model running the trivial embedding Broadcast{A} draw the same
// initial states, adversary stream and node coins from one seed, so
// full-horizon runs must agree on every detector outcome. randagree is
// randomised and so also exercises the per-node streams.
func TestBroadcastEmbeddingMatchesSim(t *testing.T) {
	randAgree, err := counter.NewRandomizedAgree(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := ecount.New(16, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	maxStep, err := counter.NewMaxStep(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range []struct {
		name string
		a    alg.Algorithm
	}{{"randagree", randAgree}, {"ecount", ec}, {"maxstep", maxStep}} {
		a := cell.a
		faults := pullSpread(a.N(), a.F())
		for _, advName := range []string{"equivocate", "random", "splitvote", "silent"} {
			if len(faults) == 0 && advName != "silent" {
				continue
			}
			adv, err := adversary.ByName(advName)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 5; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", cell.name, advName, seed)
				want, err := sim.RunFull(sim.Config{Alg: a, Faulty: faults, Adv: adv, Seed: seed, MaxRounds: 400})
				if err != nil {
					t.Fatalf("%s: sim: %v", name, err)
				}
				got, err := RunFull(Config{Alg: Broadcast{A: a}, Faulty: faults, Adv: adv, Seed: seed, MaxRounds: 400})
				if err != nil {
					t.Fatalf("%s: pull: %v", name, err)
				}
				if got.Stabilised != want.Stabilised || got.StabilisationTime != want.StabilisationTime ||
					got.Violations != want.Violations || got.RoundsRun != want.RoundsRun {
					t.Errorf("%s: pull %+v, sim %+v", name, got, want)
				}
			}
		}
	}
}
