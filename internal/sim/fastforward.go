package sim

import (
	"slices"
	"strconv"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/harness"
)

// The periodicity-aware fast-forward engine.
//
// A deterministic algorithm (alg.IsDeterministic) under a snapshottable
// adversary with a finite period (adversary.SnapshotPeriodOf) evolves
// the global configuration — the state vector plus any hidden words the
// algorithm exposes via alg.ConfigCapturer — as a pure function of
// (configuration, round mod period). Every such trajectory is
// eventually periodic, yet long-horizon RunFull verification tails and
// count-mod-c-forever replays grind through every round of the cycle.
//
// The engine removes that cost without changing a single bit of the
// Result:
//
//  1. Cycle detection (Nivasch's partitioned stack algorithm): every
//     round's configuration is pushed, keyed by (hash, round phase),
//     onto one of ffStacks stacks chosen by its hash, after popping the
//     entries whose key exceeds it, so each stack stays sorted. The
//     smallest key on the cycle in a stack is never popped once the
//     cycle has entered it, so a cycle of length λ after a tail of
//     length μ is confirmed at that key's second visit: never later
//     than round μ + 2λ, and at about μ + λ(1 + 1/ffStacks) on
//     average, close to the first repeat at μ + λ. An equal key is
//     only a *candidate*: it is verified by full configuration
//     comparison, so hash collisions cost one compare, never
//     correctness.
//  2. Analytic conclusion: once rounds r0 and r (= r0 + L) provably
//     share a configuration, the per-round observations (agreement,
//     common output) from r on replay the recorded window [r0, r)
//     forever. The detector is fed those recorded observations for a
//     short warm-up (enough to absorb the boundary and decide
//     confirmation — O(L + window) detector steps, no simulation), and
//     the remaining tail is concluded in O(L): either the cycle is
//     break-free and the streak runs forever, or breaks recur
//     per-cycle and the violation count extrapolates linearly.
//  3. Cross-trial memoisation: campaigns share a bounded
//     harness.TrajectoryMemo keyed by (algorithm id, faulty set,
//     adversary, round phase, configuration hash). A confirmed cycle
//     is published under every configuration on it (up to a size cap),
//     so trials whose trajectories merge — strided fault-placement
//     grids, Run-then-RunFull conformance replays — jump straight to
//     the analytic conclusion without re-detecting the cycle.
//
// Ineligible runs — randomised algorithms, rng- or round-driven
// adversaries (random, equivocate), the stateful greedy lookahead,
// OnRound observers, or an explicit Config.NoFastForward — never enter
// the engine and execute exactly as before.

// ffHash is the configuration hash the engine keys cycle candidates
// on. It is a variable so tests can swap in degenerate hashes
// (constant, single-bit) and prove that correctness rests on the full
// configuration verification alone.
var ffHash = alg.HashConfig

const (
	// ffRingLimit bounds the recorded observation history, which
	// starts when the run arms. A trajectory whose cycle has not been
	// confirmed within this many rounds disarms the engine for the
	// rest of the run — the run completes on the plain kernel,
	// trivially bit-identical.
	ffRingLimit = 1 << 20

	// ffMemoConfigLimit bounds the sliding per-round configuration
	// history kept for memo publication: the last ffMemoConfigLimit
	// rounds. Cycles up to this length are published under every
	// phase however late they are confirmed; longer ones are still
	// fast-forwarded, but published under the repeated configuration
	// only.
	ffMemoConfigLimit = 1 << 10

	// ffStacks is the detector's partition count K: a cycle is
	// confirmed about λ/K rounds after its first repeat.
	ffStacks = 16
)

// ffObs is one round's observation: whether all correct nodes agreed,
// and on which output value. It is exactly what Detector.Observe
// consumes, so a recorded cycle of observations replays the detector
// bit for bit.
type ffObs struct {
	agree  bool
	common int
}

// ffEntry is one detector stack entry: the key (configuration hash,
// round phase), the round it was seen and a copy of the configuration
// that verifies a key match.
type ffEntry struct {
	hash, phase uint64
	round       uint64
	config      []alg.State
}

// above reports whether e's key orders after (hash, phase).
func (e *ffEntry) above(hash, phase uint64) bool {
	return e.hash > hash || (e.hash == hash && e.phase > phase)
}

// trajectoryEntry is the memoised fact published for a configuration
// on a confirmed cycle: the configuration itself (for verification)
// and the observations of one full cycle starting at it. Entries are
// immutable after publication and shared read-only across trials.
type trajectoryEntry struct {
	config []alg.State
	ring   []ffObs
}

// ffEngine is the per-run fast-forward state. It lives in the Frame
// so its buffers recycle with the rest of the working set.
type ffEngine struct {
	alg    alg.Algorithm
	faulty []bool
	period uint64
	memo   *harness.TrajectoryMemo
	key    harness.TrajectoryKey // Alg/Faulty/Adversary prefilled
	dead   bool

	// keyMask is the fault mask key.Faulty was last built from; runs
	// with the same mask reuse the string instead of rebuilding it.
	keyMask   []bool
	keyFaulty string

	// stacks are the detector's partitioned stacks, each sorted by
	// key from bottom to top. Popping only shortens a stack, so the
	// configuration buffers of popped entries are reused by the next
	// pushes into the same slots.
	stacks [ffStacks][]ffEntry

	// cur is the configuration of the round currently being probed.
	cur []alg.State
	// ring[r] is the observation of round r since the run armed.
	ring []ffObs
	// hist holds the configurations of the last ffMemoConfigLimit
	// rounds for memo publication, round r in row r % ffMemoConfigLimit
	// (kept only when a memo is attached).
	hist []alg.State
}

// fastForwardEligible reports whether a run may fast-forward and under
// which adversary period: the engine must be enabled, no observer may
// be attached (observers see every round), the algorithm must be
// deterministic, and the adversary must declare a finite snapshot
// period.
func fastForwardEligible(cfg *Config) (period uint64, ok bool) {
	if cfg.NoFastForward || cfg.OnRound != nil || cfg.Alg == nil || !alg.IsDeterministic(cfg.Alg) {
		return 0, false
	}
	adv := cfg.Adv
	if adv == nil {
		adv = adversary.Equivocate{}
	}
	return adversary.SnapshotPeriodOf(adv)
}

// arm prepares the engine for one run, returning nil when the run is
// ineligible. faulty is the resolved fault mask.
func (ff *ffEngine) arm(cfg *Config, adv adversary.Adversary, faulty []bool) *ffEngine {
	p, ok := fastForwardEligible(cfg)
	if !ok {
		return nil
	}
	ff.alg = cfg.Alg
	ff.faulty = faulty
	ff.period = p
	ff.dead = false
	for i := range ff.stacks {
		ff.stacks[i] = ff.stacks[i][:0]
	}
	ff.ring = ff.ring[:0]
	ff.hist = ff.hist[:0]
	ff.memo = nil
	if cfg.Memo != nil && cfg.MemoAlg != "" {
		ff.memo = cfg.Memo
		if !slices.Equal(ff.keyMask, faulty) {
			ff.keyMask = append(ff.keyMask[:0], faulty...)
			ff.keyFaulty = faultyKey(faulty)
		}
		ff.key = harness.TrajectoryKey{
			Alg:       cfg.MemoAlg,
			Faulty:    ff.keyFaulty,
			Adversary: adv.Name(),
		}
	}
	return ff
}

// disarm drops references that would otherwise be retained by the
// frame pool across campaigns (the algorithm and the memo).
func (ff *ffEngine) disarm() {
	ff.alg = nil
	ff.faulty = nil
	ff.memo = nil
	ff.key = harness.TrajectoryKey{}
}

// faultyKey canonicalises a fault mask for memo keys: ascending
// indices, comma-joined.
func faultyKey(faulty []bool) string {
	buf := make([]byte, 0, 3*len(faulty))
	for i, f := range faulty {
		if !f {
			continue
		}
		if len(buf) > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(i), 10)
	}
	return string(buf)
}

// probe runs the per-round fast-forward bookkeeping for the
// start-of-round configuration: a memo lookup, then the detector step
// on the configuration's stack — pop the entries keyed above it,
// verify each equal-keyed entry by full comparison, push it. On a
// confirmed cycle it returns the observation ring of one full cycle
// starting at the current round; the caller then concludes the run
// analytically via finishFastForward.
func (ff *ffEngine) probe(round uint64, states []alg.State) ([]ffObs, bool) {
	if ff.dead {
		return nil, false
	}
	ff.cur = alg.AppendConfig(ff.alg, states, ff.cur[:0])
	// Canonicalise the faulty slots: a Byzantine node's stored state is
	// frozen at its (seed-dependent) initial draw and provably inert —
	// the kernel patches every faulty slot with the adversary's choice
	// before any correct node reads it, and snapshottable adversaries
	// never consult faulty States entries (they are unspecified by the
	// View contract). Masking them lets trajectories that agree on the
	// correct nodes merge across trials in the campaign memo.
	for i, f := range ff.faulty {
		if f {
			ff.cur[i] = 0
		}
	}
	h := ffHash(ff.cur)
	phase := round % ff.period

	if ff.memo != nil {
		k := ff.key
		k.Phase = phase
		k.Hash = h
		if v, ok := ff.memo.Get(k); ok {
			if e, ok := v.(*trajectoryEntry); ok && configsEqual(e.config, ff.cur) {
				return e.ring, true
			}
		}
	}

	if round >= ffRingLimit {
		// Give up: from here the run costs exactly what it did
		// before fast-forwarding existed (minus two dead branch
		// checks per round).
		ff.dead = true
		return nil, false
	}
	st := ff.stacks[h%ffStacks]
	top := len(st)
	for top > 0 && st[top-1].above(h, phase) {
		top--
	}
	for i := top - 1; i >= 0 && st[i].hash == h && st[i].phase == phase; i-- {
		if configsEqual(st[i].config, ff.cur) {
			// Confirmed: configuration and adversary phase repeat, so
			// the execution from round replays the window
			// [st[i].round, round) forever. len(ring) == round by
			// construction: one observation was recorded per
			// simulated round since arming.
			ring := ff.ring[st[i].round:]
			ff.publish(round, ring)
			return ring, true
		}
	}
	if top < cap(st) {
		st = st[:top+1]
	} else {
		st = append(st[:top], ffEntry{})
	}
	e := &st[top]
	e.hash, e.phase, e.round = h, phase, round
	e.config = append(e.config[:0], ff.cur...)
	ff.stacks[h%ffStacks] = st
	return nil, false
}

// record appends the observation of the probed round — probe then
// record run once each per simulated round, so ring[r] is the
// observation of round r and hist row r % ffMemoConfigLimit its
// configuration.
func (ff *ffEngine) record(agree bool, common int) {
	if ff.dead {
		return
	}
	round := len(ff.ring)
	ff.ring = append(ff.ring, ffObs{agree: agree, common: common})
	if ff.memo == nil {
		return
	}
	if round < ffMemoConfigLimit {
		ff.hist = append(ff.hist, ff.cur...)
	} else {
		words := len(ff.cur)
		row := round % ffMemoConfigLimit
		copy(ff.hist[row*words:(row+1)*words], ff.cur)
	}
}

// publish stores the cycle confirmed at round in the campaign memo:
// one entry per configuration on the cycle when it fits the sliding
// configuration history (each phase shares one doubled observation
// ring, so the publication is O(L · words) memory, not O(L²)), or the
// repeated configuration alone when the cycle is longer. A full memo
// refuses the publication before anything is copied.
func (ff *ffEngine) publish(round uint64, ring []ffObs) {
	if ff.memo == nil || len(ring) == 0 || !ff.memo.Admit() {
		return
	}
	L := len(ring)
	ringD := make([]ffObs, 2*L)
	copy(ringD, ring)
	copy(ringD[L:], ring)
	words := len(ff.cur)
	start := round - uint64(L)
	if L <= ffMemoConfigLimit {
		flat := make([]alg.State, L*words)
		for j := 0; j < L; j++ {
			r := start + uint64(j)
			row := int(r % ffMemoConfigLimit)
			cfg := flat[j*words : (j+1)*words : (j+1)*words]
			copy(cfg, ff.hist[row*words:(row+1)*words])
			k := ff.key
			k.Phase = r % ff.period
			k.Hash = ffHash(cfg)
			if !ff.memo.Add(k, &trajectoryEntry{config: cfg, ring: ringD[j : j+L : j+L]}) {
				return // memo full: keep what fit
			}
		}
		return
	}
	cfg := make([]alg.State, words)
	copy(cfg, ff.cur)
	k := ff.key
	k.Phase = start % ff.period
	k.Hash = ffHash(cfg)
	ff.memo.Add(k, &trajectoryEntry{config: cfg, ring: ringD[:L:L]})
}

func configsEqual(a, b []alg.State) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// finishFastForward concludes a run whose observations from round
// `start` on provably replay ring forever, producing a Result
// bit-identical to simulating every remaining round.
//
// Phase 1 (warm-up) feeds the detector the recorded observations for
// min(remaining, 2L + window + 2) rounds — the genuine detector steps
// of the rounds being skipped, so boundary streaks, confirmations and
// early stops fall out exactly as in the simulated run. The warm-up
// length is chosen so that afterwards the detector's fate is decided:
// any confirmation that could ever happen against a cycle containing a
// break would have happened (a window-length break-free stretch in a
// periodic pattern of period L must show itself within window + L
// rounds of the periodic region; the warm-up covers it with margin).
//
// Phase 2 concludes the tail in O(L):
//
//   - break-free cycle (every round agrees and increments): the
//     current streak runs forever. If unconfirmed, confirmation lands
//     at streakStart + window - 1; violations cannot accrue.
//   - cycle with breaks, unconfirmed after warm-up: confirmation is
//     impossible — every streak in the periodic region is shorter
//     than the window (otherwise the warm-up would have confirmed) —
//     and violations stay untouched (they only accrue after
//     confirmation).
//   - cycle with breaks, confirmed: the per-round ok/violation pattern
//     is periodic with period L (it depends only on consecutive
//     observation pairs), so the violation count extrapolates as
//     full-cycles × per-cycle count plus a partial-cycle prefix.
func finishFastForward(det *Detector, ring []ffObs, start uint64, cfg *Config, c int, res Result) Result {
	maxRounds, stopEarly := cfg.MaxRounds, cfg.StopEarly
	L := uint64(len(ring))
	window := det.Window()
	warmup := 2*L + window + 2

	t := start
	for ; t < maxRounds && t-start < warmup; t++ {
		o := ring[(t-start)%L]
		res.RoundsRun = t + 1
		if det.Observe(t, o.agree, o.common) {
			res.Stabilised = true
			res.StabilisationTime = det.Time()
			res.Violations = det.Violations()
			if stopEarly {
				return res
			}
		}
	}
	if t == maxRounds {
		res.Violations = det.Violations()
		return res
	}

	// pairOK reports the detector's per-round "counting held" verdict
	// for a round at ring phase k (valid for every skipped round past
	// the first, all of which have in-ring predecessors).
	pairOK := func(k uint64) bool {
		prev := ring[(k+L-1)%L]
		cur := ring[k]
		return cur.agree && (!prev.agree || cur.common == (prev.common+1)%c)
	}
	breakFree := true
	for k := uint64(0); k < L; k++ {
		prev := ring[(k+L-1)%L]
		cur := ring[k]
		if !(cur.agree && prev.agree && cur.common == (prev.common+1)%c) {
			breakFree = false
			break
		}
	}

	res.RoundsRun = maxRounds
	if breakFree {
		if !det.Stabilised() {
			// The last warm-up round agreed (every ring round does), so
			// a streak is live and will never break again.
			streakStart, _ := det.CurrentStreakStart()
			confirmAt := streakStart + window - 1
			if confirmAt < maxRounds {
				res.Stabilised = true
				res.StabilisationTime = streakStart
				if stopEarly {
					res.RoundsRun = confirmAt + 1
				}
			}
		}
		res.Violations = det.Violations()
		return res
	}
	if !det.Stabilised() {
		// Breaks recur every cycle and no streak reached the window
		// during the warm-up: confirmation never happens, and without
		// it violations never accrue.
		res.Violations = det.Violations()
		return res
	}
	var perCycle uint64
	for k := uint64(0); k < L; k++ {
		if !pairOK(k) {
			perCycle++
		}
	}
	remaining := maxRounds - t
	phase := (t - start) % L
	violations := det.Violations() + (remaining/L)*perCycle
	for j := uint64(0); j < remaining%L; j++ {
		if !pairOK((phase + j) % L) {
			violations++
		}
	}
	res.Violations = violations
	return res
}
