package pull

import (
	"math/rand"
	"sync"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/sim"
)

// BatchStepper is the sparse batch fast path of the pulling model: the
// per-round analogue of alg.BatchStepper for pull algorithms. Run and
// RunFull dispatch to StepAll when the algorithm implements it; the
// scalar reference loop is retained and the differential suite
// (kernel_differential_test.go) holds the two paths bit-identical.
//
// StepAll must be observationally identical to calling Step for every
// correct node in ascending order with the per-node pull closure:
//
//   - correct nodes are processed in ascending index order, and each
//     node's pulls are issued (via BatchEnv.Pull) in exactly the order
//     the reference Step issues them — the shared adversary stream
//     (adversary.View.Rng, consumed by e.g. Equivocate) makes faulty
//     responses order-sensitive across the whole round;
//   - node randomness is drawn from BatchEnv.Rng(v) in exactly the
//     per-node order Step draws it (streams are per-node, so only
//     within-node order matters);
//   - BatchEnv.Set must be called for every correct node. Faulty nodes
//     are handled by the kernel.
//
// Unlike the closure loop, StepAll receives no dense receive vector and
// is expected to run in O(n·pulls) time and O(n) memory — no per-node
// allocation, no O(n²) scratch.
type BatchStepper interface {
	Algorithm
	// PullsPerRound returns the constant number of pulls a correct node
	// issues per round; the kernel uses it to account MaxPulls/MeanPulls
	// without the counting closure. It must equal the number of Pull
	// calls the reference Step makes (which is the number of pulls the
	// reference loop would have counted).
	PullsPerRound() uint64
	// StepAll runs one round for every correct node.
	StepAll(env *BatchEnv)
}

// BatchEnv is the round context handed to BatchStepper.StepAll: the
// start-of-round states, the fault mask, the adversary and the node
// random streams, behind an interface that charges no dense structures.
// It is the run's sim.Frame seen through the pulling model, so handing
// it out costs nothing.
type BatchEnv sim.Frame

func (e *BatchEnv) frame() *sim.Frame { return (*sim.Frame)(e) }

// N returns the network size.
func (e *BatchEnv) N() int { return e.frame().N() }

// Faulty reports whether node v is Byzantine.
func (e *BatchEnv) Faulty(v int) bool { return e.frame().Faulty(v) }

// States returns the start-of-round state vector. It is shared,
// read-only context: steppers must not mutate it. Correct nodes'
// responses can be read from it directly (a pull from a correct target
// is exactly States()[target]); pulls from faulty targets must go
// through Pull so the adversary sees them in reference order.
func (e *BatchEnv) States() []alg.State { return e.frame().States() }

// Pull issues one pull by receiver from target, exactly as the
// reference loop's closure does: out-of-range targets return 0, faulty
// targets are answered by the adversary (reduced into the state space),
// correct targets respond with their start-of-round state.
func (e *BatchEnv) Pull(target, receiver int) alg.State {
	if target < 0 || target >= e.N() {
		return 0
	}
	if e.Faulty(target) {
		return e.frame().Message(target, receiver)
	}
	return e.States()[target]
}

// Rng returns node v's random stream (nil for runs of deterministic
// algorithms, which must not consult it).
func (e *BatchEnv) Rng(v int) *rand.Rand { return e.frame().Rng(v) }

// Set records node v's next state.
func (e *BatchEnv) Set(v int, s alg.State) { e.frame().Set(v, s) }

// Broadcast batch path: the trivial embedding pulls every peer, so its
// sparse form is the broadcast kernel's shared-base-plus-patches idea
// collapsed to a single reused receive vector — the base copy is made
// once per round and only the ≤ f faulty slots are rewritten per
// receiver, in the ascending order the reference Step pulls them.
var broadcastScratch sync.Pool

type broadcastEnvScratch struct {
	recv      []alg.State
	faultyIdx []int
}

var _ BatchStepper = Broadcast{}

// PullsPerRound implements BatchStepper: the embedding pulls all n−1
// peers.
func (b Broadcast) PullsPerRound() uint64 { return uint64(b.A.N() - 1) }

// StepAll implements BatchStepper.
func (b Broadcast) StepAll(env *BatchEnv) {
	n := b.A.N()
	sc, _ := broadcastScratch.Get().(*broadcastEnvScratch)
	if sc == nil {
		sc = &broadcastEnvScratch{}
	}
	defer broadcastScratch.Put(sc)
	if cap(sc.recv) < n {
		sc.recv = make([]alg.State, n)
	}
	sc.recv = sc.recv[:n]
	sc.faultyIdx = sc.faultyIdx[:0]
	states := env.States()
	copy(sc.recv, states)
	for u := 0; u < n; u++ {
		if env.Faulty(u) {
			sc.faultyIdx = append(sc.faultyIdx, u)
		}
	}
	for v := 0; v < n; v++ {
		if env.Faulty(v) {
			continue
		}
		// The reference Step pulls peers in ascending order; correct
		// responses are already in the shared copy, so only the faulty
		// slots draw from the adversary — same draws, same order.
		for _, u := range sc.faultyIdx {
			sc.recv[u] = env.Pull(u, v)
		}
		env.Set(v, b.A.Step(v, sc.recv, env.Rng(v)))
	}
}

// Deterministic reports whether the embedded broadcast algorithm is
// deterministic (the embedding adds no randomness).
func (b Broadcast) Deterministic() bool { return alg.IsDeterministic(b.A) }
