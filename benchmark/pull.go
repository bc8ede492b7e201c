package main

import (
	"context"
	"encoding/json"
	"time"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/harness"
	"github.com/synchcount/synchcount/internal/pull"
)

// The pulling-model workload: the n = 10^5 cell of pullbench -scale.
const (
	pullN       = 100_000
	pullF       = pullN / 100 // 1% Byzantine
	pullK       = 32
	pullC       = 8
	pullHorizon = 96
	pullAdv     = "equivocate"
	// pullsPerRound is what the kernel charges per StepAll: k pulls by
	// every correct node.
	pullsPerRound = uint64(pullK * (pullN - pullF))
)

var pullGossip = workload{
	name:         "pull-gossip-1e5",
	engine:       "pull",
	op:           "pull round (gap between Abort polls)",
	tail:         0.9,
	exactBatches: 8,
	params: map[string]any{
		"alg": "gossip", "n": pullN, "f": pullF, "k": pullK, "c": pullC,
		"adversary": pullAdv, "horizon": pullHorizon, "mode": "stop-early",
		"trials_per_batch": 1, "workers": 1, "fault_placement": "i*n/f",
	},
	setup: setupPull,
}

type pullRunner struct {
	g      *pull.Gossip
	adv    adversary.Adversary
	faulty []int
	seed   int64
}

func setupPull(seed int64) (runner, time.Duration, error) {
	g, err := pull.NewGossip(pullN, pullF, pullC, pullK, mix(seed, -3))
	if err != nil {
		return nil, 0, err
	}
	adv, err := adversary.ByName(pullAdv)
	if err != nil {
		return nil, 0, err
	}
	faulty := make([]int, pullF)
	for i := range faulty {
		faulty[i] = i * pullN / pullF
	}
	return &pullRunner{g: g, adv: adv, faulty: faulty, seed: seed}, 0, nil
}

// warm runs two-round trials at full size, two at a time, so that the
// kernel's pooled O(n) scratch is provisioned on every P before timing
// starts. Two rounds cannot stabilise; the outcomes are discarded.
func (r *pullRunner) warm() error {
	cfg := pull.Config{Alg: r.g, Faulty: r.faulty, Adv: r.adv, Seed: mix(r.seed, -1), MaxRounds: 2}
	_, err := harness.Campaign{
		Name: "warm-up", Seed: cfg.Seed, Workers: maxProcs,
		Scenarios: []harness.Scenario{pull.CampaignScenario("gossip", cfg, 2*maxProcs)},
	}.Run(context.Background())
	return err
}

func (r *pullRunner) batch(b int, tr *tracer) (batchOut, error) {
	pb, err := r.prepare(mix(r.seed, b), tr)
	if err != nil {
		return batchOut{}, err
	}
	return pb.run()
}

// pullBatch is one trial's one-worker harness campaign, as the scale
// cell runs it, and the state its trial function fills in.
type pullBatch struct {
	camp harness.Campaign
	slot *trialSlot
	lat  []float64
}

// prepare builds the campaign of one trial with the given seed; with
// tr set the trial runs on trace wrappers.
func (r *pullRunner) prepare(seed int64, tr *tracer) (*pullBatch, error) {
	pb := &pullBatch{slot: &trialSlot{}}
	slot := pb.slot
	cfg := pull.Config{
		Alg: r.g, Faulty: r.faulty, Adv: r.adv, Seed: seed,
		MaxRounds: pullHorizon, StopEarly: true,
	}
	if tr != nil {
		slot.g = tr.newGroup()
		a, err := wrapPull(r.g, slot.g)
		if err != nil {
			return nil, err
		}
		if cfg.Adv, err = wrapAdv(r.adv, slot.g); err != nil {
			return nil, err
		}
		cfg.Alg = a
	}
	var prev int64
	cfg.Abort = func() bool {
		now := clock()
		if slot.polls > 0 {
			pb.lat = append(pb.lat, float64(now-prev)/1e6)
		}
		prev = now
		slot.polls++
		return slot.ctx.Err() != nil
	}
	scen := pull.CampaignScenario("gossip", cfg, 1)
	scen.MaxConcurrent = 1
	inner := scen.Run
	scen.Run = func(ctx context.Context, trial int, trialSeed int64) (harness.Observation, error) {
		slot.ctx = ctx
		start := clock()
		obs, err := inner(ctx, trial, trialSeed)
		end := clock()
		slot.ns = end - start
		if tr != nil {
			tr.fold(slot.g, kindTrial, start, end)
		}
		return obs, err
	}
	pb.camp = harness.Campaign{Name: "benchmark", Seed: seed, Workers: 1, Scenarios: []harness.Scenario{scen}}
	return pb, nil
}

// run runs the trial and checks that it stabilised within the horizon
// without violations.
func (pb *pullBatch) run() (batchOut, error) {
	var out batchOut
	slot := pb.slot
	res, err := pb.camp.Run(context.Background())
	if err != nil {
		return out, err
	}
	out.lat = [][]float64{pb.lat}
	c := errCheck{&out}
	for _, t := range res.Scenarios[0].Trials {
		c.check(t.Stabilised && t.Violations == 0,
			"trial seed %d: stabilised %v at round %d within horizon %d, %d violations", t.Seed, t.Stabilised, t.StabilisationTime, pullHorizon, t.Violations)
		out.stab = append(out.stab, float64(t.StabilisationTime))
		out.rounds += t.RoundsRun
		out.trials++
	}
	out.busyNs = slot.ns
	out.polls = slot.polls
	out.workers = 1
	out.exact, err = json.Marshal(struct {
		Result *harness.Result
		Polls  uint64
	}{res, out.polls})
	return out, err
}
