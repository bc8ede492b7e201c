// Package pull implements the synchronous pulling model of Section 5 and
// the randomised, communication-efficient counters of Theorem 4 and
// Corollaries 4–5.
//
// Model: in every round each processor contacts a subset of nodes by
// pulling their state; contacted nodes respond with their state as of
// the beginning of the round; faulty nodes may respond with arbitrary,
// per-puller-different states. The message/bit complexity of an
// algorithm is the maximum number of messages/bits pulled by a
// non-faulty node in a round — the "energy budget" of the circuit
// motivation. Pulls within a round may be issued adaptively (the model
// fixes only that all responses reflect start-of-round states); the
// sampled counter uses this for the single king pull whose identity
// depends on the voted round counter R.
package pull

import (
	"errors"
	"math/rand"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/codec"
	"github.com/synchcount/synchcount/internal/sim"
)

// Puller is the per-round communication capability handed to a node: it
// returns the start-of-round state of the target (or adversarial
// garbage when the target is faulty). Every call is one pull and is
// charged to the calling node.
type Puller func(target int) alg.State

// Algorithm is a counting algorithm in the pulling model.
type Algorithm interface {
	// N, F, C and StateSpace mirror alg.Algorithm.
	N() int
	F() int
	C() int
	StateSpace() uint64
	// Step runs one round for the node: it may pull any targets (cost:
	// one message per call) and must return the next state.
	// Deterministic algorithms (alg.Deterministic) ignore rng, which may
	// be nil for them.
	Step(node int, own alg.State, pull Puller, rng *rand.Rand) alg.State
	// Output maps a state to the counter value.
	Output(node int, s alg.State) int
}

// Config describes one pulling-model run.
type Config struct {
	// Alg is the pulling-model algorithm under test.
	Alg Algorithm
	// Faulty lists Byzantine node indices.
	Faulty []int
	// Adv supplies faulty responses from the omniscient
	// adversary.View. Defaults to adversary.Equivocate.
	Adv adversary.Adversary
	// Seed drives all randomness.
	Seed int64
	// MaxRounds bounds the run. Required.
	MaxRounds uint64
	// Window is the confirmation window (default sim.DefaultWindowFor).
	Window uint64
	// Init optionally fixes initial states.
	Init []alg.State
	// StopEarly stops once stabilisation is confirmed.
	StopEarly bool
	// OnRound observes (round, states, outputs) like sim.Config.OnRound.
	OnRound func(round uint64, states []alg.State, outputs []int)
	// Abort, when non-nil, is polled once per round; the run stops with
	// ErrAborted as soon as it returns true (see sim.Config.Abort).
	Abort func() bool
}

// ErrAborted is returned by Run/RunFull when Config.Abort requested an
// early stop.
var ErrAborted = errors.New("pull: run aborted")

// Result reports a pulling-model run.
type Result struct {
	// Stabilised, StabilisationTime, RoundsRun and Violations are as in
	// sim.Result.
	Stabilised        bool
	StabilisationTime uint64
	RoundsRun         uint64
	Violations        uint64
	// MaxPulls is the maximum number of pulls any correct node issued in
	// any round — the paper's per-node message complexity.
	MaxPulls uint64
	// MeanPulls is the average pulls per correct node per round.
	MeanPulls float64
	// MaxBits is MaxPulls times the per-state bit size.
	MaxBits uint64
}

// Run executes the configured pulling-model simulation with early stop.
func Run(cfg Config) (Result, error) {
	cfg.StopEarly = true
	return run(cfg)
}

// RunFull executes for exactly MaxRounds (for violation counting).
func RunFull(cfg Config) (Result, error) {
	cfg.StopEarly = false
	return run(cfg)
}

// run dispatches to the sparse batch kernel when the algorithm provides
// one, and to the retained scalar reference loop otherwise. The
// differential suite holds the two paths bit-identical.
func run(cfg Config) (Result, error) {
	bs, _ := cfg.Alg.(BatchStepper)
	return runMode(cfg, bs)
}

// runReference forces the scalar reference loop regardless of batch
// support; the differential suite and the BenchmarkPull_* pairs measure
// the kernel against it.
func runReference(cfg Config) (Result, error) { return runMode(cfg, nil) }

// runMode runs the pulling model on the shared lockstep frame (see
// sim.Frame); only the stepping is the pulling model's own.
func runMode(cfg Config, batch BatchStepper) (Result, error) {
	fr, err := sim.OpenFrame(sim.FrameConfig{
		Engine: "pull", Alg: cfg.Alg, Faulty: cfg.Faulty, Adv: cfg.Adv, Seed: cfg.Seed,
		MaxRounds: cfg.MaxRounds, Window: cfg.Window, Init: cfg.Init,
		StopEarly: cfg.StopEarly, OnRound: cfg.OnRound,
	})
	if err != nil {
		return Result{}, err
	}
	defer fr.Close()
	a := cfg.Alg
	n := a.N()
	correct := uint64(fr.Correct())
	env := (*BatchEnv)(fr)
	var res Result
	var totalPulls, nodeRounds uint64

	for round := uint64(0); round < cfg.MaxRounds; round++ {
		if cfg.Abort != nil && cfg.Abort() {
			return Result{}, ErrAborted
		}
		if _, _, stop := fr.Observe(round); stop {
			break
		}
		if batch != nil {
			batch.StepAll(env)
			// Batch algorithms pull a constant PullsPerRound per correct
			// node — the same count the reference closure tallies.
			ppr := batch.PullsPerRound()
			totalPulls += ppr * correct
			nodeRounds += correct
			if correct > 0 && ppr > res.MaxPulls {
				res.MaxPulls = ppr
			}
		} else {
			states := env.States()
			for v := 0; v < n; v++ {
				if env.Faulty(v) {
					continue
				}
				var pulls uint64
				puller := func(target int) alg.State {
					pulls++
					return env.Pull(target, v)
				}
				env.Set(v, a.Step(v, states[v], puller, env.Rng(v)))
				totalPulls += pulls
				nodeRounds++
				if pulls > res.MaxPulls {
					res.MaxPulls = pulls
				}
			}
		}
		if err := fr.Advance(); err != nil {
			return Result{}, err
		}
	}
	res.Stabilised, res.StabilisationTime, res.RoundsRun, res.Violations = fr.Verdict()
	if nodeRounds > 0 {
		res.MeanPulls = float64(totalPulls) / float64(nodeRounds)
	}
	res.MaxBits = res.MaxPulls * uint64(codec.SpaceBits(a.StateSpace()))
	return res, nil
}

// Broadcast adapts a broadcast-model algorithm to the pulling model by
// pulling every peer each round — the trivial (expensive) embedding the
// randomised constructions are measured against.
type Broadcast struct {
	// A is the underlying broadcast-model algorithm.
	A alg.Algorithm
}

var _ Algorithm = Broadcast{}

// N implements Algorithm.
func (b Broadcast) N() int { return b.A.N() }

// F implements Algorithm.
func (b Broadcast) F() int { return b.A.F() }

// C implements Algorithm.
func (b Broadcast) C() int { return b.A.C() }

// StateSpace implements Algorithm.
func (b Broadcast) StateSpace() uint64 { return b.A.StateSpace() }

// Output implements Algorithm.
func (b Broadcast) Output(node int, s alg.State) int { return b.A.Output(node, s) }

// Step implements Algorithm: it pulls all n-1 peers and delegates to the
// broadcast transition.
func (b Broadcast) Step(node int, own alg.State, pull Puller, rng *rand.Rand) alg.State {
	n := b.A.N()
	recv := make([]alg.State, n)
	for u := 0; u < n; u++ {
		if u == node {
			recv[u] = own
			continue
		}
		recv[u] = pull(u)
	}
	return b.A.Step(node, recv, rng)
}
