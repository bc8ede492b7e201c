// Package adversary implements Byzantine behaviours for the synchronous
// full-information model of the paper.
//
// A Byzantine node "may exhibit arbitrary behaviour, including to send
// different messages to every node". The Adversary interface is therefore
// per-(sender, receiver): each round, for every faulty sender and every
// receiver, the adversary chooses the state the receiver observes. The
// adversary is omniscient (it sees all correct states at the start of the
// round) and adaptive, but it cannot predict the coin flips that correct
// nodes make *within* the current round — the standard adaptive-adversary
// model for randomised self-stabilisation.
package adversary

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/synchcount/synchcount/internal/alg"
)

// View is the omniscient snapshot handed to the adversary each round.
type View struct {
	// Round is the current round number (0-based).
	Round uint64
	// States holds the start-of-round states of all nodes. Entries for
	// faulty nodes are unspecified and must not be relied upon.
	States []alg.State
	// Faulty[i] reports whether node i is Byzantine.
	Faulty []bool
	// Space is the algorithm's state-space size |X|; any value in
	// [0, Space) is a legal message.
	Space uint64
	// Rng is the adversary's private randomness.
	Rng *rand.Rand

	baseSeed int64

	// Round-scoped scratch: the correct-state vector is recomputed at
	// most once per round and shared by every Message/MessageRow call
	// of that round, instead of one fresh slice per point-to-point
	// message (Spread and Flip used to allocate O(n) per message).
	correctScratch []alg.State
	correctRound   uint64
	correctValid   bool

	// Round-scoped Random broadcasts: each faulty sender's value is
	// drawn at most once per (Round, Space, base seed) and shared by
	// every receiver, from one reusable source re-seeded per sender.
	// An entry is current when its gen equals bcastGen, so bumping
	// bcastGen invalidates all of them at once. Allocated on the first
	// Random draw only.
	bcast      []broadcast
	bcastRng   *rand.Rand
	bcastGen   uint64
	bcastRound uint64
	bcastSpace uint64
	bcastValid bool
}

// broadcast is one cached Random value, current iff gen == View.bcastGen.
type broadcast struct {
	gen uint64
	s   alg.State
}

// AppendCorrectStates appends the states of all correct nodes, in node
// order, to dst and returns the extended slice. It is the
// allocation-free variant of CorrectStates for callers that hold a
// scratch buffer.
func (v *View) AppendCorrectStates(dst []alg.State) []alg.State {
	for i, s := range v.States {
		if !v.Faulty[i] {
			dst = append(dst, s)
		}
	}
	return dst
}

// CorrectStates returns the states of all correct nodes in node order.
// The slice is freshly allocated; hot paths use AppendCorrectStates or
// the View's per-round cache instead.
func (v *View) CorrectStates() []alg.State {
	return v.AppendCorrectStates(make([]alg.State, 0, len(v.States)))
}

// correctStates returns the correct-state vector for the current
// round, computing it at most once per round into the View's scratch.
// Callers must not retain or mutate the returned slice.
func (v *View) correctStates() []alg.State {
	if !v.correctValid || v.correctRound != v.Round {
		v.correctScratch = v.AppendCorrectStates(v.correctScratch[:0])
		v.correctRound = v.Round
		v.correctValid = true
	}
	return v.correctScratch
}

// Adversary chooses, for every faulty sender, the state each receiver
// observes. Implementations must be deterministic given (View.Rng, View);
// all randomness must come from View.Rng so runs are reproducible.
type Adversary interface {
	// Name identifies the strategy (used by CLIs and experiment tables).
	Name() string
	// Message returns the state faulty node from presents to receiver to.
	Message(v *View, from, to int) alg.State
}

// RowMessenger is the vectorized fan-out hook: the simulator's round
// kernel delivers all faulty-sender messages for one receiver in a
// single call, sparing one interface dispatch per (sender, receiver)
// pair. MessageRow must be observationally identical to calling
// Message(v, senders[j], to) for j ascending — including the order of
// draws from the shared View.Rng — which is exactly how the kernel
// invokes it (receivers ascending, senders ascending). Strategies
// without the hook fall back to per-pair Message.
type RowMessenger interface {
	Adversary
	// MessageRow fills row[j] with the state senders[j] presents to
	// receiver to this round. len(row) == len(senders); senders lists
	// the faulty nodes in ascending order.
	MessageRow(v *View, senders []int, to int, row []alg.State)
}

// Snapshottable is the stateless-adversary marker the simulator's
// periodicity-aware fast-forward engine gates on. Implementing it
// asserts that the strategy keeps no hidden mutable state of its own —
// every message choice is a pure function of the View it is handed.
// The View's own round-scoped caches (the correct-state vector,
// Random's broadcasts) only memoise such functions and do not count.
// All seven built-in strategies qualify; the greedy lookahead caches
// per-round assignments across calls and therefore opts out by not
// implementing the interface.
//
// SnapshotPeriod additionally classifies how the choices depend on
// time and randomness:
//
//   - p >= 1: the whole per-round message matrix is a pure function of
//     (round mod p, the *correct* States entries, Faulty, Space) — in
//     particular independent of View.Rng and of the States entries of
//     faulty nodes (which the View contract leaves unspecified
//     anyway). Configurations then evolve as a pure function of
//     (configuration, round mod p) and the engine can detect cycles,
//     fast-forward, and merge trajectories across trials. Every
//     round-oblivious strategy returns 1.
//   - 0: the strategy is still stateless, but its choices draw on the
//     adversary randomness stream or the absolute round number
//     (Random seeds each round's broadcasts from the round number;
//     Equivocate consumes the shared stream), so the effective
//     configuration includes an RNG cursor that never revisits itself
//     within any realistic horizon. Fast-forward stands down and the
//     run proceeds on the plain kernel, bit for bit as before.
type Snapshottable interface {
	Adversary
	// SnapshotPeriod returns the round period p of the strategy's
	// message function, or 0 when the strategy is randomness- or
	// absolute-round-dependent (fast-forward ineligible).
	SnapshotPeriod() uint64
}

// SnapshotPeriodOf reports the snapshot period of a strategy and
// whether the fast-forward engine may cycle-detect under it: the
// strategy must implement Snapshottable and declare a period >= 1.
func SnapshotPeriodOf(a Adversary) (uint64, bool) {
	s, ok := a.(Snapshottable)
	if !ok {
		return 0, false
	}
	p := s.SnapshotPeriod()
	return p, p >= 1
}

// Silent models crash-like behaviour: the faulty node appears frozen in
// state 0 forever. This is the weakest attack and a useful baseline.
type Silent struct{}

// Name implements Adversary.
func (Silent) Name() string { return "silent" }

// Message implements Adversary.
func (Silent) Message(*View, int, int) alg.State { return 0 }

// SnapshotPeriod implements Snapshottable: the frozen state is a
// constant — round- and randomness-oblivious.
func (Silent) SnapshotPeriod() uint64 { return 1 }

// Random broadcasts a fresh uniform state each round, the same to all
// receivers (a non-equivocating but noisy fault). Sender from's value
// in round r is the first uniform draw of a math/rand source seeded
// with r·1000003 + from·7919 + the View's base seed; the View computes
// it once per (round, sender) and serves every receiver from that.
type Random struct{}

// Name implements Adversary.
func (Random) Name() string { return "random" }

// Message implements Adversary.
func (Random) Message(v *View, from, _ int) alg.State {
	return v.randomBroadcast(from)
}

// SnapshotPeriod implements Snapshottable. Random is stateless but its
// per-round value is derived from the absolute round number, so the
// trajectory has no finite configuration period: fast-forward stands
// down (period 0).
func (Random) SnapshotPeriod() uint64 { return 0 }

// Equivocate sends an independent uniform state to every receiver every
// round — maximal noise equivocation.
type Equivocate struct{}

// Name implements Adversary.
func (Equivocate) Name() string { return "equivocate" }

// Message implements Adversary.
func (Equivocate) Message(v *View, _, _ int) alg.State {
	return uniform(v.Rng, v.Space)
}

// SnapshotPeriod implements Snapshottable. Equivocate is stateless but
// consumes the shared adversary randomness stream, whose cursor never
// revisits itself within a realistic horizon: fast-forward stands down
// (period 0).
func (Equivocate) SnapshotPeriod() uint64 { return 0 }

// Mirror impersonates a correct node: every faulty node copies the state
// of the lowest-indexed correct node, making the fault invisible to
// simple agreement checks while distorting vote counts.
type Mirror struct{}

// Name implements Adversary.
func (Mirror) Name() string { return "mirror" }

// Message implements Adversary.
func (Mirror) Message(v *View, _, _ int) alg.State {
	for i, f := range v.Faulty {
		if !f {
			return v.States[i]
		}
	}
	return 0
}

// SnapshotPeriod implements Snapshottable: Mirror copies a correct
// state — a pure function of (States, Faulty).
func (Mirror) SnapshotPeriod() uint64 { return 1 }

// SplitVote tries to keep correct nodes disagreeing: it finds two distinct
// states held by correct nodes and shows the first to even-numbered
// receivers and the second to odd-numbered receivers. When all correct
// nodes already agree it echoes a stale (decremented) state to both sides
// to stall re-convergence.
type SplitVote struct{}

// Name implements Adversary.
func (SplitVote) Name() string { return "splitvote" }

// Message implements Adversary.
func (SplitVote) Message(v *View, _, to int) alg.State {
	var a, b alg.State
	seenA := false
	seenB := false
	for i, f := range v.Faulty {
		if f {
			continue
		}
		s := v.States[i]
		switch {
		case !seenA:
			a, seenA = s, true
		case s != a && !seenB:
			b, seenB = s, true
		}
	}
	if !seenA {
		return 0
	}
	if !seenB {
		// Unanimity among correct nodes: inject a perturbed state.
		b = (a + v.Space - 1) % v.Space
	}
	if to%2 == 0 {
		return a
	}
	return b
}

// SnapshotPeriod implements Snapshottable: the split depends only on
// the correct states and the receiver index.
func (SplitVote) SnapshotPeriod() uint64 { return 1 }

// Spread shows each receiver a different correct node's state, maximising
// disagreement about what the faulty node "is": receiver t sees the state
// of the t-th correct node (mod the number of correct nodes).
type Spread struct{}

// Name implements Adversary.
func (Spread) Name() string { return "spread" }

// Message implements Adversary.
func (Spread) Message(v *View, _, to int) alg.State {
	correct := v.correctStates()
	if len(correct) == 0 {
		return 0
	}
	return correct[to%len(correct)]
}

// SnapshotPeriod implements Snapshottable: the spread is a pure
// function of (States, Faulty) and the receiver index.
func (Spread) SnapshotPeriod() uint64 { return 1 }

// Flip delays convergence of binary counters: it reports the complement
// of the majority state of the correct nodes, pushing tallies away from
// unanimity thresholds. For larger state spaces it perturbs the majority
// state by +1.
type Flip struct{}

// Name implements Adversary.
func (Flip) Name() string { return "flip" }

// Message implements Adversary.
func (Flip) Message(v *View, _, _ int) alg.State {
	maj := alg.Majority(v.correctStates())
	return (maj + 1) % v.Space
}

// SnapshotPeriod implements Snapshottable: the flipped majority is a
// pure function of (States, Faulty).
func (Flip) SnapshotPeriod() uint64 { return 1 }

// randomBroadcast returns Random's value for sender from in the current
// round: a pure function of (Round, from, Space, base seed), computed
// at most once per round and sender. Re-seeding the one reusable source
// yields the same stream as a freshly allocated rand.NewSource(seed).
func (v *View) randomBroadcast(from int) alg.State {
	if !v.bcastValid || v.bcastRound != v.Round || v.bcastSpace != v.Space {
		v.bcastGen++
		v.bcastRound, v.bcastSpace, v.bcastValid = v.Round, v.Space, true
	}
	if len(v.bcast) < len(v.Faulty) {
		v.bcast = make([]broadcast, len(v.Faulty))
	}
	b := &v.bcast[from]
	if b.gen != v.bcastGen {
		seed := int64(v.Round)*1000003 + int64(from)*7919 + v.baseSeed
		if v.bcastRng == nil {
			v.bcastRng = rand.New(rand.NewSource(seed))
		} else {
			v.bcastRng.Seed(seed)
		}
		b.gen, b.s = v.bcastGen, uniform(v.bcastRng, v.Space)
	}
	return b.s
}

// SetBaseSeed fixes the seed component of Random's per-(round, sender)
// broadcasts and drops any broadcasts cached under the previous seed.
// The simulator calls it once per run.
func (v *View) SetBaseSeed(seed int64) {
	v.baseSeed = seed
	v.bcastValid = false
}

// Registry returns all built-in adversary strategies keyed by name.
func Registry() map[string]Adversary {
	all := []Adversary{
		Silent{}, Random{}, Equivocate{}, Mirror{}, SplitVote{}, Spread{}, Flip{},
	}
	m := make(map[string]Adversary, len(all))
	for _, a := range all {
		m[a.Name()] = a
	}
	return m
}

// Names returns the sorted names of all built-in strategies.
func Names() []string {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ByName looks up a built-in strategy.
func ByName(name string) (Adversary, error) {
	a, ok := Registry()[name]
	if !ok {
		return nil, fmt.Errorf("adversary: unknown strategy %q (have %v)", name, Names())
	}
	return a, nil
}

// uniform draws a uniform forged state; see alg.UniformState for the
// overflow-safe draw rule shared with the simulator's initial-state
// draws.
func uniform(rng *rand.Rand, space uint64) alg.State {
	return alg.UniformState(rng, space)
}
