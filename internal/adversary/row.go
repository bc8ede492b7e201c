package adversary

import "github.com/synchcount/synchcount/internal/alg"

// MessageRow implementations for every built-in strategy. Each one is
// provably equivalent to calling Message per (sender, receiver) pair
// in ascending sender order — the kernel differential suite holds the
// vectorized round kernel (which uses these) bit-identical to the
// reference loop (which calls Message per pair) — while doing the
// per-round or per-receiver analysis once instead of once per message:
// SplitVote resolves its two camps once per row rather than scanning
// all states per message, Spread and Flip read the View's per-round
// correct-state cache, Random reads the View's per-round broadcast
// cache, and Silent/Mirror reduce to constant fills.
var (
	_ RowMessenger = Silent{}
	_ RowMessenger = Random{}
	_ RowMessenger = Equivocate{}
	_ RowMessenger = Mirror{}
	_ RowMessenger = SplitVote{}
	_ RowMessenger = Spread{}
	_ RowMessenger = Flip{}
)

// MessageRow implements RowMessenger.
func (Silent) MessageRow(_ *View, senders []int, _ int, row []alg.State) {
	for j := range senders {
		row[j] = 0
	}
}

// MessageRow implements RowMessenger: each sender's broadcast value is
// read from the View's round-scoped cache exactly as Message does, so
// all receivers observe the same state and only the first row of a
// round pays for the draws.
func (Random) MessageRow(v *View, senders []int, _ int, row []alg.State) {
	for j, from := range senders {
		row[j] = v.randomBroadcast(from)
	}
}

// MessageRow implements RowMessenger: one fresh draw per (sender,
// receiver) pair from the shared stream, in the same order the
// reference loop performs them.
func (Equivocate) MessageRow(v *View, senders []int, _ int, row []alg.State) {
	for j := range senders {
		row[j] = uniform(v.Rng, v.Space)
	}
}

// MessageRow implements RowMessenger.
func (Mirror) MessageRow(v *View, senders []int, _ int, row []alg.State) {
	var s alg.State
	for i, f := range v.Faulty {
		if !f {
			s = v.States[i]
			break
		}
	}
	for j := range senders {
		row[j] = s
	}
}

// MessageRow implements RowMessenger: the two camps (a, b) depend only
// on the round's correct states, so they are resolved once per row —
// not once per message — and fanned out by receiver parity.
func (sv SplitVote) MessageRow(v *View, senders []int, to int, row []alg.State) {
	if len(senders) == 0 {
		return
	}
	s := sv.Message(v, senders[0], to)
	for j := range senders {
		row[j] = s
	}
}

// MessageRow implements RowMessenger.
func (sp Spread) MessageRow(v *View, senders []int, to int, row []alg.State) {
	correct := v.correctStates()
	var s alg.State
	if len(correct) > 0 {
		s = correct[to%len(correct)]
	}
	for j := range senders {
		row[j] = s
	}
}

// MessageRow implements RowMessenger: one majority computation per
// row instead of one per message.
func (fl Flip) MessageRow(v *View, senders []int, _ int, row []alg.State) {
	maj := alg.Majority(v.correctStates())
	s := (maj + 1) % v.Space
	for j := range senders {
		row[j] = s
	}
}
