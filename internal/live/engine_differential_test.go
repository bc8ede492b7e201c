package live

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/sim"
)

// obs is one OnRound observation; the differential suite compares the
// full per-round streams of the two engines, not just the final report,
// so a divergence is caught at the round it first appears.
type obs struct {
	round  uint64
	agree  bool
	common int
	onTime int
}

// engine runs one live configuration: the concurrent Runtime or replay.
type engine func(Config) (*Report, error)

func concurrent(cfg Config) (*Report, error) {
	rt, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return rt.Run(context.Background())
}

// diffCell is one differential configuration: a stack and a chaos
// schedule generator config, with the run seed taken from cc.Seed.
type diffCell struct {
	alg    alg.Algorithm
	cc     ChaosConfig
	window uint64
}

// soakCell is the n=8 ecount soak of the package's live tests.
func soakCell(t *testing.T, seed int64, kinds []string) diffCell {
	cc, window := soakConfig(seed, kinds)
	return diffCell{alg: buildAlg(t, "ecount", 8, 1, 8), cc: cc, window: window}
}

// liveSmokeCell is the `make live-smoke` soak exactly as liverun builds
// it: ecount n=32 f=3 c=8, seed 1, crash+partition, 2 bursts of 8
// rounds, warmup and gaps of bound + window + 8.
func liveSmokeCell(t *testing.T) diffCell {
	a := buildAlg(t, "ecount", 32, 3, 8)
	window := DefaultWindowFor(a.C())
	auto := declaredBound(t, a) + window + 8
	return diffCell{alg: a, window: window, cc: ChaosConfig{
		Seed: 1, N: a.N(), Kinds: []string{"crash", "partition"},
		Warmup: auto, Bursts: 2, BurstLen: 8, Gap: auto,
	}}
}

// runCell soaks one cell on the given engine and returns the report
// (wall-clock fields zeroed) plus the per-round observation trace and
// the canonical chaos timeline.
func runCell(t *testing.T, run engine, cell diffCell) (*Report, []obs, string) {
	t.Helper()
	sched, err := NewSchedule(cell.cc)
	if err != nil {
		t.Fatal(err)
	}
	var trace []obs
	rep, err := run(Config{
		Alg:      cell.alg,
		Seed:     cell.cc.Seed,
		Window:   cell.window,
		Schedule: sched,
		OnRound: func(round uint64, agree bool, common, onTime int) {
			trace = append(trace, obs{round, agree, common, onTime})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Elapsed, rep.RoundsPerSec = 0, 0
	return rep, trace, sched.Timeline()
}

// The engine contract: per seed, the concurrent engine reproduces the
// sequential replay oracle byte-for-byte — same chaos timeline, same
// report (every counter, every recovery record), same per-round
// observation stream — under every deterministic chaos kind alone and
// combined, and on the live-smoke soak.
func TestEngineDifferential(t *testing.T) {
	kindSets := [][]string{
		nil, // burst windows with nothing in them: a fault-free soak
		{"crash"},
		{"loss"},
		{"corrupt"},
		{"dup"},
		{"delay"},
		{"partition"},
		{"crash", "loss", "corrupt", "dup", "delay", "partition"},
	}
	type namedCell struct {
		name string
		cell func(t *testing.T) diffCell
	}
	var cells []namedCell
	for _, kinds := range kindSets {
		for _, seed := range []int64{7, 99} {
			cells = append(cells, namedCell{
				fmt.Sprintf("%v/seed=%d", kinds, seed),
				func(t *testing.T) diffCell { return soakCell(t, seed, kinds) },
			})
		}
	}
	cells = append(cells, namedCell{"live-smoke", liveSmokeCell})
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			cell := c.cell(t)
			wantRep, wantTrace, wantTL := runCell(t, replay, cell)
			gotRep, gotTrace, gotTL := runCell(t, concurrent, cell)
			if wantTL != gotTL {
				t.Fatalf("chaos timelines diverge:\n%s\nvs\n%s", wantTL, gotTL)
			}
			if !reflect.DeepEqual(wantRep, gotRep) {
				t.Fatalf("reports diverge:\nreplay:    %+v\nconcurrent: %+v", wantRep, gotRep)
			}
			if !reflect.DeepEqual(wantTrace, gotTrace) {
				for i := range wantTrace {
					if i < len(gotTrace) && wantTrace[i] != gotTrace[i] {
						t.Fatalf("observation streams diverge at round %d: replay %+v, concurrent %+v", wantTrace[i].round, wantTrace[i], gotTrace[i])
					}
				}
				t.Fatalf("observation streams diverge in length: %d vs %d", len(wantTrace), len(gotTrace))
			}
		})
	}
}

// The combined-kind soak must actually inject every deterministic chaos
// family, or the differential above proves less than it claims.
func TestEngineDifferentialCoversAllKinds(t *testing.T) {
	rep, _, _ := runCell(t, concurrent, soakCell(t, 99, []string{"crash", "loss", "corrupt", "dup", "delay", "partition"}))
	if rep.Crashes == 0 || rep.Restarts == 0 || rep.Dropped == 0 ||
		rep.Corrupted == 0 || rep.Duplicated == 0 || rep.Delayed == 0 || rep.Suppressed == 0 {
		t.Fatalf("combined soak left a chaos family uninjected: %+v", rep)
	}
	if rep.DecodeErrors == 0 {
		t.Fatalf("corrupt chaos produced no decode errors — bit-flipped frames must keep hitting the receivers' own validation: %+v", rep)
	}
}

// Fault-free replay is the paper's lockstep model: every node hears
// every peer every round, so its arbitrary initial view of its peers is
// overwritten before the first step. Started from the same initial
// states, replay and the simulator's RunFull must produce the identical
// per-round output vector and the same stabilisation round.
func TestReplayMatchesLockstepSim(t *testing.T) {
	const rounds, window, seed = 200, 32, 5
	a := buildAlg(t, "ecount", 8, 1, 8)
	if !alg.IsDeterministic(a) {
		t.Fatal("ecount is expected to be deterministic")
	}
	cfg := Config{Alg: a, Seed: seed, Rounds: rounds, Window: window}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	init := make([]alg.State, a.N())
	for i := range init {
		init[i], _, _, _, _ = rt.incarnate(i, 0)
	}

	var liveOut [][]int
	rep, err := replayObserved(cfg, func(_ uint64, out []int) {
		liveOut = append(liveOut, append([]int(nil), out...))
	})
	if err != nil {
		t.Fatal(err)
	}
	var simOut [][]int
	res, err := sim.RunFull(sim.Config{
		Alg: a, Seed: seed, MaxRounds: rounds, Window: window, Init: init,
		OnRound: func(_ uint64, _ []alg.State, out []int) {
			simOut = append(simOut, append([]int(nil), out...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(liveOut, simOut) {
		for r := range liveOut {
			if r < len(simOut) && !reflect.DeepEqual(liveOut[r], simOut[r]) {
				t.Fatalf("round %d: replay outputs %v, lockstep sim %v", r, liveOut[r], simOut[r])
			}
		}
		t.Fatalf("replay ran %d rounds, lockstep sim %d", len(liveOut), len(simOut))
	}
	if !rep.Stabilised || !res.Stabilised {
		t.Fatalf("run did not stabilise in %d rounds: replay %v, sim %v", rounds, rep.Stabilised, res.Stabilised)
	}
	if rep.FirstStabilised != res.StabilisationTime {
		t.Fatalf("replay stabilised at round %d, lockstep sim at %d", rep.FirstStabilised, res.StabilisationTime)
	}
}

// A stall is wall-clock time, which no sequential computation can
// reproduce: replay refuses the schedule instead of guessing.
func TestReplayRejectsStall(t *testing.T) {
	cc, window := soakConfig(11, []string{"stall"})
	cc.StallDur = 80 * time.Millisecond
	sched, err := NewSchedule(cc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = replay(Config{Alg: buildAlg(t, "ecount", 8, 1, 8), Seed: 11, Window: window, Schedule: sched})
	if err == nil {
		t.Fatal("replay accepted a stall schedule")
	}
	if !strings.Contains(err.Error(), "stall") || !strings.Contains(err.Error(), "wall-clock") {
		t.Fatalf("error %q does not explain that a stall is wall-clock time", err)
	}
}

// Stall chaos is wall-clock and outside the byte-diff contract. The
// concurrent engine must still inject the scheduled stalls, degrade
// gracefully and recover.
func TestEngineStallBehavioural(t *testing.T) {
	t.Run("optimized", func(t *testing.T) {
		a := buildAlg(t, "ecount", 8, 1, 8)
		cfg, window := soakConfig(11, []string{"stall"})
		cfg.StallDur = 80 * time.Millisecond
		sched, err := NewSchedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(Config{
			Alg:          a,
			Seed:         11,
			Window:       window,
			Schedule:     sched,
			RoundTimeout: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rt.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stalls != 2 {
			t.Fatalf("injected %d stalls, want one per burst (2)", rep.Stalls)
		}
		if rep.TimedOutRounds == 0 {
			t.Fatal("stalled nodes never missed a barrier — the stall must exceed the round deadline")
		}
		if err := rep.CheckRecovery(declaredBound(t, a)); err != nil {
			t.Fatal(err)
		}
	})
}
