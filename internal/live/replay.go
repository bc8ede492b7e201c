package live

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/synchcount/synchcount/internal/alg"
)

// replay computes a live run sequentially: one goroutine, no channels,
// no barriers. Every chaos decision is a pure hash of (seed, round,
// edge) and every node incarnation draws its memory from its own seed,
// so a run without stall chaos is a deterministic function of its
// Config — the lockstep round of the paper's model, with the live
// transport's faults folded in. replay is the semantic anchor the
// differential suite pins the concurrent engine against, byte-for-byte.
//
// Per round it applies crash and restart events, observes the outputs
// of the live nodes, routes every (sender, receiver) edge through the
// chaos windows in sender/receiver/window order, and has each live
// receiver decode its delivered frames, merge them into its view of its
// peers (peers it has not heard from stay at their last authenticated
// state) and step.
//
// A stall is wall-clock time and cannot be replayed, so a schedule
// holding stall events is an error. RoundTimeout and WallBudget never
// come into play: nothing waits, and the run always reaches its
// horizon unless the schedule crashes every node.
func replay(cfg Config) (*Report, error) { return replayObserved(cfg, nil) }

// replayObserved is replay with an observer of every round's full
// output vector (-1 for crashed nodes), called before Config.OnRound.
func replayObserved(cfg Config, outputs func(round uint64, out []int)) (*Report, error) {
	rt, err := New(cfg)
	if err != nil {
		return nil, err
	}
	sched := cfg.Schedule
	var seed int64
	if sched != nil {
		for _, ev := range sched.Events {
			if ev.Kind == EventStall {
				return nil, fmt.Errorf("live: replay cannot reproduce the %v stall of node %d at round %d: a stall is wall-clock time, not a function of the seed", ev.Stall, ev.Node, ev.Round)
			}
		}
		seed = sched.Seed
	}

	// node is one incarnation's memory, exactly what the concurrent
	// engine's node goroutine owns.
	type node struct {
		state     alg.State
		rng       *rand.Rand
		lastSeen  []alg.State
		lastRound []uint64
		heard     []bool
	}
	spawn := func(id, inc int) *node {
		nd := &node{}
		nd.state, nd.rng, nd.lastSeen, nd.lastRound, nd.heard = rt.incarnate(id, inc)
		return nd
	}
	nodes := make([]*node, rt.n)
	for i := range nodes {
		nodes[i] = spawn(i, 0)
	}

	// A delayed frame waits in held, keyed by its delivery round.
	type heldFrame struct {
		to    int
		frame []byte
	}
	var (
		rep     = &Report{}
		track   = newTracker(cfg.Alg.C(), rt.window)
		out     = make([]int, rt.n)
		frames  = make([][]byte, rt.n)
		inbox   = make([][][]byte, rt.n)
		recv    = make([]alg.State, rt.n)
		held    = map[uint64][]heldFrame{}
		windows []*Window
	)
	start := time.Now()
	for round := uint64(0); round < rt.horizon; round++ {
		if sched != nil {
			for _, ev := range sched.eventsAt(round) {
				switch {
				case ev.Kind == EventCrash && nodes[ev.Node] != nil:
					nodes[ev.Node] = nil
					rep.Crashes++
					track.fault(round, ev.Burst)
				case ev.Kind == EventRestart && nodes[ev.Node] == nil:
					rep.Restarts++
					nodes[ev.Node] = spawn(ev.Node, int(rep.Restarts))
					track.fault(round, ev.Burst)
				}
			}
		}

		// Observe the start-of-round outputs and encode the broadcasts.
		agree, common, alive := true, -1, 0
		for i, nd := range nodes {
			out[i] = -1
			if nd == nil {
				continue
			}
			alive++
			out[i] = cfg.Alg.Output(i, nd.state)
			if common == -1 {
				common = out[i]
			} else if out[i] != common {
				agree = false
			}
			frames[i] = appendFrame(frames[i][:0], i, round, nd.state, rt.space)
		}
		if alive == 0 {
			return finishReport(rep, track, start), fmt.Errorf("live: round %d: no live nodes remain — the schedule crashed the whole network", round)
		}
		track.observe(round, agree, common)
		if outputs != nil {
			outputs(round, out)
		}
		if cfg.OnRound != nil {
			cfg.OnRound(round, agree, common, alive)
		}
		rep.Rounds = round + 1

		// Route every edge through the chaos windows.
		for v := range inbox {
			inbox[v] = inbox[v][:0]
		}
		windows = windows[:0]
		if sched != nil {
			windows = sched.windowsAt(round, windows)
		}
		interferedBurst := -1
		for s, fr := range frames {
			if nodes[s] == nil {
				continue
			}
			for v := range nodes {
				if v == s || nodes[v] == nil {
					continue
				}
				cur, delivered := fr, true
				for _, w := range windows {
					if w.Group != nil {
						if w.Group[s] != w.Group[v] {
							rep.Suppressed++
							interferedBurst = w.Burst
							delivered = false
						}
						continue
					}
					if w.Drop > 0 && chaosHash(seed, round, s, v, saltDrop) < w.Drop {
						rep.Dropped++
						interferedBurst = w.Burst
						delivered = false
						continue
					}
					if w.Corrupt > 0 && chaosHash(seed, round, s, v, saltCorrupt) < w.Corrupt {
						cur = corruptFrame(cur, chaosWord(seed, round, s, v), rt.space)
						rep.Corrupted++
						interferedBurst = w.Burst
					}
					if w.Delay > 0 && chaosHash(seed, round, s, v, saltDelay) < w.Delay {
						// Copied: the sender's buffer is rewritten next round.
						held[round+w.DelayBy] = append(held[round+w.DelayBy], heldFrame{to: v, frame: append([]byte(nil), cur...)})
						rep.Delayed++
						interferedBurst = w.Burst
						delivered = false
						continue
					}
					if w.Dup > 0 && chaosHash(seed, round, s, v, saltDup) < w.Dup {
						inbox[v] = append(inbox[v], cur)
						rep.Duplicated++
						interferedBurst = w.Burst
					}
				}
				if delivered {
					inbox[v] = append(inbox[v], cur)
				}
			}
		}
		for _, hf := range held[round] {
			if nodes[hf.to] != nil {
				inbox[hf.to] = append(inbox[hf.to], hf.frame)
			}
		}
		delete(held, round)
		if interferedBurst >= 0 {
			track.fault(round, interferedBurst)
		}

		// Every live node merges its inbox — the newest authenticated
		// frame per sender wins, ties to the later arrival — and steps.
		for v, nd := range nodes {
			if nd == nil {
				continue
			}
			for _, fr := range inbox[v] {
				from, rnd, st, err := decodeFrame(fr, rt.n, rt.space)
				if err != nil {
					rep.DecodeErrors++
					continue
				}
				if from == v {
					continue
				}
				if !nd.heard[from] || rnd >= nd.lastRound[from] {
					nd.heard[from] = true
					nd.lastRound[from] = rnd
					nd.lastSeen[from] = st
				}
			}
			copy(recv, nd.lastSeen)
			recv[v] = nd.state
			nd.state = cfg.Alg.Step(v, recv, nd.rng)
		}
	}
	return finishReport(rep, track, start), nil
}
