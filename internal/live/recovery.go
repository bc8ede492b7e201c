package live

import (
	"fmt"
	"time"
)

// Recovery is the measured response to one fault burst: how many rounds
// after the burst's last actually-injected fault the live network was
// counting correctly again.
type Recovery struct {
	// Burst is the schedule burst index.
	Burst int `json:"burst"`
	// FaultRound is the last round in which the burst actually
	// interfered (dropped/forged a frame, crashed, restarted or stalled
	// a node, suppressed a partition edge) — the f' "actual fault load"
	// reference point, not the scheduled window end.
	FaultRound uint64 `json:"fault_round"`
	// RecoveredAt is the first round of the post-fault streak of
	// correct counting.
	RecoveredAt uint64 `json:"recovered_at"`
	// Latency is the recovery latency in rounds: RecoveredAt -
	// FaultRound - 1, i.e. 0 when the fault never broke counting.
	Latency uint64 `json:"latency"`
	// Confirmed reports that the post-fault streak reached the
	// confirmation window before the run ended.
	Confirmed bool `json:"confirmed"`
}

// tracker performs online stabilisation and recovery detection over the
// per-round agreement observations of the live runtime. It is the
// repeated-confirmation counterpart of internal/sim's Detector: every
// injected fault re-arms the window, and each burst yields one Recovery
// measured from its last actual fault.
type tracker struct {
	c      int
	window uint64

	// Current streak of correct counting rounds.
	have  bool
	start uint64
	prev  int

	// Outstanding fault burst awaiting re-confirmation.
	pending   bool
	burst     int
	lastFault uint64

	firstConfirmed bool
	firstStable    uint64
	violations     uint64

	recoveries []Recovery
}

func newTracker(c int, window uint64) *tracker {
	return &tracker{c: c, window: window}
}

// fault records that chaos actually interfered in the given round's
// exchange (affecting the states observed from round+1 on). Later
// faults of the same burst slide the reference point forward, so the
// recovery is measured from the burst's last injected fault.
func (t *tracker) fault(round uint64, burst int) {
	t.pending = true
	t.burst = burst
	t.lastFault = round
}

// observe records one round's outputs: whether every on-time live node
// agreed, and on what value. Rounds with no on-time nodes are observed
// as disagreement.
func (t *tracker) observe(round uint64, agree bool, common int) {
	ok := false
	switch {
	case !agree:
		t.have = false
	case !t.have:
		t.have = true
		t.start = round
		t.prev = common
		ok = true
	case common != (t.prev+1)%t.c:
		// The counter jumped or stalled: this round can seed a fresh
		// streak but does not extend the old one.
		t.start = round
		t.prev = common
		ok = false
	default:
		t.prev = common
		ok = true
	}

	// A break with no outstanding injected fault is a violation of the
	// counting contract — only meaningful once the run has stabilised at
	// least once (initial convergence is not a violation).
	if !ok && !t.pending && t.firstConfirmed {
		t.violations++
	}

	if !t.have {
		return
	}
	if t.pending {
		// The post-fault streak can only start after the fault round.
		from := t.start
		if from <= t.lastFault {
			from = t.lastFault + 1
		}
		if round >= from && round-from+1 >= t.window {
			t.recoveries = append(t.recoveries, Recovery{
				Burst:       t.burst,
				FaultRound:  t.lastFault,
				RecoveredAt: from,
				Latency:     from - t.lastFault - 1,
				Confirmed:   true,
			})
			t.pending = false
			if !t.firstConfirmed {
				t.firstConfirmed = true
				t.firstStable = from
			}
		}
		return
	}
	if !t.firstConfirmed && round-t.start+1 >= t.window {
		t.firstConfirmed = true
		t.firstStable = t.start
	}
}

// finish closes the books at the end of the run: an outstanding fault
// burst that never re-confirmed is recorded unconfirmed, with the
// streak-in-progress (if any) as its tentative recovery point.
func (t *tracker) finish() {
	if !t.pending {
		return
	}
	rec := Recovery{Burst: t.burst, FaultRound: t.lastFault}
	if t.have {
		from := t.start
		if from <= t.lastFault {
			from = t.lastFault + 1
		}
		rec.RecoveredAt = from
		rec.Latency = from - t.lastFault - 1
	}
	t.recoveries = append(t.recoveries, rec)
	t.pending = false
}

// Report is the outcome of one live run.
type Report struct {
	// Rounds is the number of synchronised rounds driven; Elapsed the
	// wall-clock spent; RoundsPerSec the sustained throughput.
	Rounds       uint64        `json:"rounds"`
	Elapsed      time.Duration `json:"elapsed"`
	RoundsPerSec float64       `json:"rounds_per_sec"`

	// Stabilised reports that the run confirmed correct counting at
	// least once; FirstStabilised is the first round of that streak.
	Stabilised      bool   `json:"stabilised"`
	FirstStabilised uint64 `json:"first_stabilised"`

	// Recoveries holds one record per injected fault burst.
	Recoveries []Recovery `json:"recoveries"`

	// Violations counts rounds that broke counting with no injected
	// fault outstanding — zero for a correct deterministic stack.
	Violations uint64 `json:"violations"`

	// Synchroniser and transport health counters.
	TimedOutRounds uint64 `json:"timed_out_rounds"` // node-rounds past a barrier deadline
	StaleMessages  uint64 `json:"stale_messages"`   // late/defunct-incarnation messages discarded
	StaleBatches   uint64 `json:"stale_batches"`    // superseded round batches skipped by nodes
	ControlDrops   uint64 `json:"control_drops"`    // round handoffs refused by a lagging node
	DecodeErrors   uint64 `json:"decode_errors"`    // frames rejected by the wire validation

	// Chaos accounting (what was actually injected).
	Crashes    uint64 `json:"crashes"`
	Restarts   uint64 `json:"restarts"`
	Stalls     uint64 `json:"stalls"`
	Dropped    uint64 `json:"dropped"`
	Corrupted  uint64 `json:"corrupted"`
	Duplicated uint64 `json:"duplicated"`
	Delayed    uint64 `json:"delayed"`
	Suppressed uint64 `json:"suppressed"` // partition-cut frames

	// BudgetExhausted reports the run stopped at the wall budget before
	// completing its scripted horizon.
	BudgetExhausted bool `json:"budget_exhausted"`
}

// CheckRecovery verifies the soak contract: the run stabilised, every
// injected burst re-confirmed correct counting, no recovery took longer
// than the stack's declared stabilisation bound, and no round broke
// counting without an injected fault to blame.
func (r *Report) CheckRecovery(bound uint64) error {
	if !r.Stabilised {
		return fmt.Errorf("live: the run never stabilised in %d rounds", r.Rounds)
	}
	for _, rec := range r.Recoveries {
		if !rec.Confirmed {
			return fmt.Errorf("live: burst %d (last fault at round %d) never re-confirmed stable counting before the run ended at round %d", rec.Burst, rec.FaultRound, r.Rounds)
		}
		if rec.Latency > bound {
			return fmt.Errorf("live: burst %d recovered %d rounds after its last fault (round %d), above the declared stabilisation bound of %d rounds", rec.Burst, rec.Latency, rec.FaultRound, bound)
		}
	}
	if r.Violations > 0 {
		return fmt.Errorf("live: %d rounds broke counting with no injected fault outstanding", r.Violations)
	}
	return nil
}
