package main

import (
	"context"
	"encoding/json"
	"time"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/live"
	"github.com/synchcount/synchcount/internal/registry"
)

// The live workload: the liverun default stack as a goroutine-per-node
// service under crash, loss and partition bursts.
const (
	liveAlg        = "ecount"
	liveN, liveF   = 32, 3
	liveC          = 8
	liveBurstLen   = 8
	liveBursts     = 20 // per soak: one batch
	liveWarmBursts = 2
	// liveTimeout is the per-barrier deadline, far above any healthy
	// round, so scheduler noise on a shared host never counts a node
	// faulty.
	liveTimeout = 5 * time.Second
)

var liveKinds = []string{"crash", "loss", "partition"}

var liveWorkload = workload{
	name:         "live-ecount-chaos",
	engine:       "live",
	op:           "live round (gap between OnRound calls)",
	tail:         0.99,
	exactBatches: 16,
	params: map[string]any{
		"alg": liveAlg, "n": liveN, "f": liveF, "c": liveC,
		"chaos": liveKinds, "burst_len": liveBurstLen, "bursts_per_soak": liveBursts,
		"gap": "bound + window + 8", "round_timeout": liveTimeout.String(),
	},
	setup: setupLive,
}

type liveRunner struct {
	a      alg.Algorithm
	bound  uint64
	window uint64
	gap    uint64
	seed   int64
}

func setupLive(seed int64) (runner, time.Duration, error) {
	start := time.Now()
	a, err := registry.Build(liveAlg, registry.Params{N: liveN, F: liveF, C: liveC})
	build := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	b, ok := a.(alg.Bound)
	if !ok {
		return nil, 0, errNoBound
	}
	window := live.DefaultWindowFor(a.C())
	bound := b.StabilisationBound()
	return &liveRunner{a: a, bound: bound, window: window, gap: bound + window + 8, seed: seed}, build, nil
}

func (r *liveRunner) warm() error {
	_, err := r.soak(mix(r.seed, -1), liveWarmBursts, nil)
	return err
}

func (r *liveRunner) batch(b int, tr *tracer) (batchOut, error) {
	return r.soak(mix(r.seed, b), liveBursts, tr)
}

// soak runs one live runtime over a fresh chaos schedule and checks
// the soak contract: initial stabilisation and every burst's recovery
// within the declared bound, no violations, no decode errors.
func (r *liveRunner) soak(seed int64, bursts int, tr *tracer) (batchOut, error) {
	var out batchOut
	sched, err := live.NewSchedule(live.ChaosConfig{
		Seed: seed, N: r.a.N(), Kinds: liveKinds,
		Warmup: r.gap, Bursts: bursts, BurstLen: liveBurstLen, Gap: r.gap,
	})
	if err != nil {
		return out, err
	}
	a := r.a
	var lr *lockedRecorder
	if tr != nil {
		lr = &lockedRecorder{tr: tr}
		if a, err = wrapAlg(r.a, lr); err != nil {
			return out, err
		}
	}
	lat := make([]float64, 0, sched.Rounds)
	var prev int64
	var spans []span
	onRound := func(round uint64, _ bool, _ int, _ int) {
		now := clock()
		if round > 0 {
			lat = append(lat, float64(now-prev)/1e6)
			if tr != nil {
				g := tr.newGroup()
				spans = lr.drain(spans[:0])
				for _, s := range spans {
					s.Group = g.id
					g.spans = append(g.spans, s)
				}
				tr.fold(g, kindRound, prev, now)
			}
		}
		prev = now
	}
	rt, err := live.New(live.Config{
		Alg: a, Seed: seed, Window: r.window, RoundTimeout: liveTimeout,
		Schedule: sched, OnRound: onRound,
	})
	if err != nil {
		return out, err
	}
	rep, err := rt.Run(context.Background())
	if err != nil {
		return out, err
	}

	c := errCheck{&out}
	c.check(rep.Stabilised && rep.FirstStabilised <= r.bound,
		"soak seed %d: initial stabilisation (stabilised %v at round %d) not within bound %d", seed, rep.Stabilised, rep.FirstStabilised, r.bound)
	for _, rec := range rep.Recoveries {
		c.check(rec.Confirmed && rec.Latency <= r.bound,
			"soak seed %d: burst %d recovered after %d rounds (confirmed %v), bound %d", seed, rec.Burst, rec.Latency, rec.Confirmed, r.bound)
		out.stab = append(out.stab, float64(rec.Latency))
	}
	c.check(rep.Violations == 0 && rep.DecodeErrors == 0 && rep.CheckRecovery(r.bound) == nil && !rep.BudgetExhausted,
		"soak seed %d: %d violations, %d decode errors, CheckRecovery: %v", seed, rep.Violations, rep.DecodeErrors, rep.CheckRecovery(r.bound))

	out.lat = [][]float64{lat}
	out.rounds = rep.Rounds
	out.trials = 1
	out.live = liveCounters{
		dropped: rep.Dropped, suppressed: rep.Suppressed, timedOut: rep.TimedOutRounds,
		stale: rep.StaleMessages, decodeErrors: rep.DecodeErrors,
	}
	exact := *rep
	exact.Elapsed, exact.RoundsPerSec = 0, 0
	if out.exact, err = json.Marshal(exact); err != nil {
		return out, err
	}
	return out, nil
}

// mix derives the seed of batch b (b = -1: the warm-up) from the run
// seed with SplitMix64, so distinct batches never share inputs.
func mix(seed int64, b int) int64 {
	z := uint64(seed) + uint64(b+2)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}
