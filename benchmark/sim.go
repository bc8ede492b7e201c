package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/harness"
	"github.com/synchcount/synchcount/internal/registry"
	"github.com/synchcount/synchcount/internal/sim"
)

// simSpec is one campaign-style workload of the lockstep simulator.
type simSpec struct {
	algs, advs []string
	f, c       int
	// horizon is the RunFull length; 0 runs stop-early to the
	// registry horizon (declared bound + slack).
	horizon uint64
	// trials per scenario per batch
	trials int
}

var verifyFF = simSpec{
	algs: []string{"ecount", "ecount-chain"}, advs: []string{"silent", "splitvote"},
	f: 3, c: 8, horizon: 1 << 14, trials: 32,
}

var kernelRngAdv = simSpec{
	algs: []string{"ecount", "ecount-chain", "theorem2"}, advs: []string{"equivocate", "random"},
	f: 3, c: 8, trials: 16,
}

var simVerifyFF = workload{
	name:         "sim-verify-ff",
	engine:       "sim",
	op:           "trial (harness Scenario.Run)",
	tail:         0.95,
	exactBatches: 8,
	params:       verifyFF.params(),
	setup:        verifyFF.setup,
}

var simKernelRngAdv = workload{
	name:         "sim-kernel-rngadv",
	engine:       "sim",
	op:           "trial (harness Scenario.Run)",
	tail:         0.95,
	exactBatches: 8,
	params:       kernelRngAdv.params(),
	setup:        kernelRngAdv.setup,
}

func (s simSpec) params() map[string]any {
	mode := "stop-early, horizon bound+512"
	if s.horizon > 0 {
		mode = fmt.Sprintf("RunFull, horizon %d, shared trajectory memo per batch", s.horizon)
	}
	return map[string]any{
		"algs": s.algs, "adversaries": s.advs, "f": s.f, "c": s.c, "faults": s.f,
		"mode": mode, "trials_per_scenario_per_batch": s.trials,
		"fault_placement": "rotating with the trial index", "workers": maxProcs,
	}
}

// simScenario is one (stack, adversary) cell.
type simScenario struct {
	name      string
	a         alg.Algorithm
	memoID    string
	bound     uint64
	adv       adversary.Adversary
	maxRounds uint64
}

type simRunner struct {
	spec    simSpec
	scen    []simScenario
	workers int
	seed    int64
}

func (s simSpec) setup(seed int64) (runner, time.Duration, error) {
	r := &simRunner{spec: s, workers: min(maxProcs, runtime.NumCPU()), seed: seed}
	var build time.Duration
	for _, name := range s.algs {
		spec, err := registry.ByName(name)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		a, err := spec.Build(registry.Params{F: s.f, C: s.c})
		build += time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		b, ok := a.(alg.Bound)
		if !ok {
			return nil, 0, fmt.Errorf("%s: %w", name, errNoBound)
		}
		maxRounds := s.horizon
		if maxRounds == 0 {
			maxRounds = spec.MaxRounds(a)
		}
		for _, advName := range s.advs {
			adv, err := adversary.ByName(advName)
			if err != nil {
				return nil, 0, err
			}
			r.scen = append(r.scen, simScenario{
				name:      fmt.Sprintf("%s/n=%d/f=%d/c=%d/%s", name, a.N(), a.F(), a.C(), advName),
				a:         a,
				memoID:    fmt.Sprintf("%s/n=%d/f=%d/c=%d", name, a.N(), a.F(), a.C()),
				bound:     b.StabilisationBound(),
				adv:       adv,
				maxRounds: maxRounds,
			})
		}
	}
	return r, build, nil
}

// warm runs a small campaign of the same cells on inputs no batch
// uses, so pools and caches are filled before timing starts.
func (r *simRunner) warm() error {
	_, err := r.campaign(mix(r.seed, -1), 2, nil)
	return err
}

func (r *simRunner) batch(b int, tr *tracer) (batchOut, error) {
	return r.campaign(mix(r.seed, b), r.spec.trials, tr)
}

// trialSlot carries one trial's context from the harness trial
// function into the sim.Config its build closure makes: the trial
// context for the Abort hook, its span group and its counters. Each
// trial owns its slot, so workers never share one.
type trialSlot struct {
	ctx   context.Context
	g     *group
	polls uint64
	ns    int64
}

// simBatch is one batch's harness campaign and the per-trial state
// its trial functions fill in.
type simBatch struct {
	r     *simRunner
	camp  harness.Campaign
	memo  *harness.TrajectoryMemo
	slots []trialSlot
}

// campaign runs and checks one batch of trials per cell.
func (r *simRunner) campaign(seed int64, trials int, tr *tracer) (batchOut, error) {
	return r.prepare(seed, trials, tr).run()
}

// prepare builds trials trials of every cell as one harness campaign,
// compare-style: every cell draws from the campaign seed's trial-seed
// stream, fault placement strides the ring rotating with the trial
// index, and a RunFull workload shares one trajectory memo across the
// batch. With tr set, every trial runs on its own trace wrappers.
func (r *simRunner) prepare(seed int64, trials int, tr *tracer) *simBatch {
	var memo *harness.TrajectoryMemo
	if r.spec.horizon > 0 {
		memo = harness.NewTrajectoryMemo(0)
	}
	slots := make([]trialSlot, len(r.scen)*trials)
	camp := harness.Campaign{Name: "benchmark", Seed: seed, Workers: r.workers}
	for si, sc := range r.scen {
		faults := r.spec.f
		build := func(trial int) (sim.Config, error) {
			slot := &slots[si*trials+trial]
			n := sc.a.N()
			faulty := make([]int, 0, faults)
			for j := 0; j < faults; j++ {
				faulty = append(faulty, (trial+j*n/faults)%n)
			}
			cfg := sim.Config{
				Alg: sc.a, Faulty: faulty, Adv: sc.adv,
				MaxRounds: sc.maxRounds, StopEarly: r.spec.horizon == 0,
			}
			if memo != nil {
				cfg.Memo, cfg.MemoAlg = memo, sc.memoID
			}
			if slot.g != nil {
				a, err := wrapAlg(sc.a, slot.g)
				if err != nil {
					return cfg, err
				}
				if cfg.Adv, err = wrapAdv(sc.adv, slot.g); err != nil {
					return cfg, err
				}
				cfg.Alg = a
			}
			ctx := slot.ctx
			cfg.Abort = func() bool {
				slot.polls++
				return ctx.Err() != nil
			}
			return cfg, nil
		}
		scen := sim.CampaignScenarioFunc(sc.name, trials, build, &seed)
		inner := scen.Run
		scen.Run = func(ctx context.Context, trial int, trialSeed int64) (harness.Observation, error) {
			slot := &slots[si*trials+trial]
			slot.ctx = ctx
			if tr != nil {
				slot.g = tr.newGroup()
			}
			start := clock()
			obs, err := inner(ctx, trial, trialSeed)
			end := clock()
			slot.ns = end - start
			if tr != nil {
				tr.fold(slot.g, kindTrial, start, end)
				slot.g = nil
			}
			return obs, err
		}
		camp.Scenarios = append(camp.Scenarios, scen)
	}
	return &simBatch{r: r, camp: camp, memo: memo, slots: slots}
}

// run runs the campaign and checks every trial against its stack's
// declared stabilisation bound.
func (sb *simBatch) run() (batchOut, error) {
	var out batchOut
	res, err := sb.camp.Run(context.Background())
	if err != nil {
		return out, err
	}

	c := errCheck{&out}
	for si, sr := range res.Scenarios {
		sc := sb.r.scen[si]
		for _, t := range sr.Trials {
			c.check(t.Stabilised && t.StabilisationTime <= sc.bound && t.Violations == 0,
				"%s trial %d (seed %d): stabilised %v at round %d, bound %d, %d violations",
				sc.name, t.Trial, t.Seed, t.Stabilised, t.StabilisationTime, sc.bound, t.Violations)
			out.stab = append(out.stab, float64(t.StabilisationTime))
			out.rounds += t.RoundsRun
			out.trials++
		}
	}
	out.lat = make([][]float64, len(sb.r.scen))
	for i := range sb.slots {
		c := i * len(sb.r.scen) / len(sb.slots)
		out.lat[c] = append(out.lat[c], float64(sb.slots[i].ns)/1e6)
		out.busyNs += sb.slots[i].ns
		out.polls += sb.slots[i].polls
	}
	out.workers = sb.camp.Workers
	if sb.memo != nil {
		out.memoHits, out.memoMiss, _ = sb.memo.Stats()
	}
	out.exact, err = json.Marshal(struct {
		Result *harness.Result
		Polls  uint64
	}{res, out.polls})
	return out, err
}
