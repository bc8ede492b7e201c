// Command benchmark is the repository benchmark. It runs one named
// workload through the public entry points of internal/live,
// internal/sim with internal/harness, and internal/pull for a fixed
// wall time, checks the paper's counting contract on every output, and
// prints its metrics as one JSON object on the last line of standard
// output: the end-to-end metrics of an untraced run, or with --trace 1
// the per-layer metrics of a traced run.
//
// Run it from the repository root through its wrapper script, which
// builds it first:
//
//	bash benchmark/run.sh --workload sim-verify-ff --seed 1 --seconds 10 --trace 0
//
// Every workload is a closed loop: a trial (or live round) starts when
// the previous one completes. Its inputs are generated from --seed
// alone, in batches: batch b of a seed is always the same work, so the
// first few batches give figures that are exact per seed while the run
// keeps adding batches until --seconds have passed.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run builds its stacks and warms up;
// setup_s reports the median.
const setupReps = 5

// batchOut is what one batch of a workload produced.
type batchOut struct {
	rounds    uint64      // logical rounds, including fast-forwarded ones
	trials    int         // trials (sim, pull) or soaks (live)
	attempted int         // contract checks made
	failures  []string    // contract checks failed, one line each
	stab      []float64   // rounds from the last disturbance to counting
	lat       [][]float64 // closed-loop operation latencies per cell, ms
	busyNs    int64       // summed trial spans (sim, pull)
	workers   int         // campaign workers (sim, pull)
	polls     uint64      // rounds the kernel entered (Abort polls)
	memoHits  uint64
	memoMiss  uint64
	live      liveCounters
	exact     []byte // every deterministic output, for the traced-run check

	// Set by measure around the batch.
	wall           time.Duration
	cpu            time.Duration
	mallocs, bytes uint64
	peakMB         float64
}

// liveCounters are the live Report health and chaos counters.
type liveCounters struct {
	dropped, suppressed, timedOut, stale, decodeErrors uint64
}

// runner executes one workload's batches.
type runner interface {
	// warm runs the fixed warm-up work that set-up includes.
	warm() error
	// batch runs batch b of the seeded input stream, recording spans
	// into tr when it is non-nil.
	batch(b int, tr *tracer) (batchOut, error)
}

// workload is one named benchmark input.
type workload struct {
	name   string
	engine string // live, sim or pull
	// op names what one latency sample times; tail is the tail
	// percentile printed in detail, chosen so that a run of the declared
	// length leaves well over minBeyond samples beyond it.
	op   string
	tail float64
	// exactBatches is how many leading batches the per-seed exact
	// figures (stab_rounds_*, traced reproduction) cover; every run
	// completes at least this many.
	exactBatches int
	params       map[string]any
	// setup builds the stacks and returns a runner plus the time spent
	// in registry builds.
	setup func(seed int64) (runner, time.Duration, error)
}

var workloads = []workload{liveWorkload, simVerifyFF, simKernelRngAdv, pullGossip}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "input seed")
	secs := fl.Int("seconds", 10, "seconds to measure")
	trace := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := fl.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans to")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fl.Arg(0))
	}
	if *secs < 1 {
		return fmt.Errorf("--seconds %d: measure at least one second", *secs)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	var w *workload
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("--workload %q: want one of %s", *name, strings.Join(names, ", "))
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	emit := func(key string, v any) error {
		b, err := json.Marshal(map[string]any{key: v})
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(out, "%s\n", b)
		return err
	}
	if err := emit("context", runContext(w, *seed, *secs, *trace == 1)); err != nil {
		return err
	}

	var r runner
	var setups, builds []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		rr, build, err := w.setup(*seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		settle()
		if err := rr.warm(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		builds = append(builds, float64(build)/float64(time.Millisecond))
		r = rr
	}

	setupPeak := peakRSSMB()
	measureFor := time.Duration(*secs) * time.Second
	var metrics map[string]metric
	var detail map[string]any
	var ph phase
	correct := true
	if *trace == 0 {
		var err error
		if ph, err = measure(r, w.exactBatches, measureFor, nil); err != nil {
			return err
		}
		if metrics, detail, err = endToEnd(w, ph, median(setups)); err != nil {
			return err
		}
	} else {
		plain, err := measure(r, w.exactBatches, 0, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		if ph, err = measure(r, w.exactBatches, measureFor, tr); err != nil {
			return err
		}
		for b := 0; b < w.exactBatches; b++ {
			if string(plain.outs[b].exact) != string(ph.outs[b].exact) {
				correct = false
				fmt.Fprintf(out, "FAIL %s: traced batch %d does not reproduce the untraced outputs\n", w.name, b)
			}
		}
		metrics, detail = perLayer(w, plain, ph, tr, median(builds))
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.ndjson", w.name, *seed))
		if err := tr.writeSpans(path); err != nil {
			return err
		}
		detail["trace_file"] = path
		detail["spans_kept"] = len(tr.kept)
		detail["spans_not_kept"] = tr.dropped
	}

	res := result{Correct: correct, Metrics: metrics}
	for _, o := range ph.outs {
		res.Attempted += o.attempted
		res.Failed += len(o.failures)
		for _, f := range o.failures {
			fmt.Fprintf(out, "FAIL %s: %s\n", w.name, f)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	detail["fail_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	detail["setup_runs_s"] = setups
	detail["peak_rss_after_setup_mb"] = setupPeak
	detail["batches"] = len(ph.outs)
	if err := emit("detail", detail); err != nil {
		return err
	}
	for name, m := range metrics {
		if err := checkMetric(name, m.Unit); err != nil {
			return err
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// settle runs two collections, which empties every sync.Pool (a pooled
// object survives exactly one), and returns the freed memory to the OS.
// Each set-up then warms up from the same state, so what the warm-up
// leaves pooled, and with it the resident set of the measured phase,
// does not depend on the collections earlier set-up reps happened to
// trigger.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// maxProcs caps GOMAXPROCS and campaign workers, so runs on a larger
// host measure the same parallelism as the recorded baseline.
const maxProcs = 2

// phase is one measured stretch of batches.
type phase struct {
	outs []batchOut
	wall time.Duration
	// GC totals over the phase, for the per-layer Go runtime metrics.
	gcCycles, gcPauseNs uint64
}

// measure runs batches from 0 until at least minBatches are done and
// at least d has passed, taking each batch's wall, CPU and heap
// allocation.
func measure(r runner, minBatches int, d time.Duration, tr *tracer) (phase, error) {
	var ph phase
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	first := m0
	start := time.Now()
	for b := 0; b < minBatches || time.Since(start) < d; b++ {
		resetPeakRSS()
		t0, cpu0 := time.Now(), cpuTime()
		o, err := r.batch(b, tr)
		if err != nil {
			return ph, fmt.Errorf("batch %d: %w", b, err)
		}
		o.wall, o.cpu = time.Since(t0), cpuTime()-cpu0
		runtime.ReadMemStats(&m1)
		o.mallocs, o.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		o.peakMB = peakRSSMB()
		m0 = m1
		ph.outs = append(ph.outs, o)
	}
	ph.wall = time.Since(start)
	ph.gcCycles = uint64(m1.NumGC - first.NumGC)
	ph.gcPauseNs = m1.PauseTotalNs - first.PauseTotalNs
	return ph, nil
}

func (ph *phase) rounds() uint64 {
	var n uint64
	for _, o := range ph.outs {
		n += o.rounds
	}
	return n
}

// perBatch returns the median over batches of f(batch).
func (ph *phase) perBatch(f func(o *batchOut) float64) float64 {
	xs := make([]float64, len(ph.outs))
	for i := range ph.outs {
		xs[i] = f(&ph.outs[i])
	}
	return median(xs)
}

// endToEnd derives the end-to-end metrics of an untraced phase. Rates,
// per-round costs and the peak resident set are medians over batches,
// so one descheduled batch, one garbage collection that empties a pool
// or one collection that overshoots its heap goal cannot swing them.
func endToEnd(w *workload, ph phase, setup float64) (map[string]metric, map[string]any, error) {
	var trials int
	var lat [][]float64
	var stab []float64
	for i, o := range ph.outs {
		trials += o.trials
		for c, xs := range o.lat {
			if c == len(lat) {
				lat = append(lat, nil)
			}
			lat[c] = append(lat[c], xs...)
		}
		if i < w.exactBatches {
			stab = append(stab, o.stab...)
		}
	}
	// A campaign's cells differ in kind (the random adversary costs
	// thirty times equivocate's), so pooling them would put the median
	// in the gap between clusters: each cell gets its own percentiles
	// and the metric is their mean.
	var p50s []quantile
	var p50 float64
	tails := map[string]any{}
	for c, xs := range lat {
		q50, err := percentile(xs, 0.5)
		if err != nil {
			return nil, nil, fmt.Errorf("latency of cell %d: %w", c, err)
		}
		p50s = append(p50s, q50)
		p50 += q50.Value / float64(len(lat))
		if qt, err := percentile(xs, w.tail); err != nil {
			tails[fmt.Sprint(c)] = err.Error()
		} else {
			tails[fmt.Sprint(c)] = qt
		}
	}
	stabMax, stabSum := 0.0, 0.0
	for _, s := range stab {
		stabMax = max(stabMax, s)
		stabSum += s
	}
	perRound := func(x float64, o *batchOut) float64 { return x / float64(o.rounds) }
	m := map[string]metric{
		"setup_s":          {setup, "s"},
		"rounds_per_s":     {ph.perBatch(func(o *batchOut) float64 { return float64(o.rounds) / o.wall.Seconds() }), "1/s"},
		"trials_per_s":     {ph.perBatch(func(o *batchOut) float64 { return float64(o.trials) / o.wall.Seconds() }), "1/s"},
		"latency_p50_ms":   {p50, "ms"},
		"cpu_us_per_round": {ph.perBatch(func(o *batchOut) float64 { return perRound(float64(o.cpu.Microseconds()), o) }), "us"},
		"allocs_per_round": {ph.perBatch(func(o *batchOut) float64 { return perRound(float64(o.mallocs), o) }), "count"},
		"bytes_per_round":  {ph.perBatch(func(o *batchOut) float64 { return perRound(float64(o.bytes), o) }), "B"},
		"mem_peak_mb":      {ph.perBatch(func(o *batchOut) float64 { return o.peakMB }), "MB"},
		"stab_rounds_mean": {stabSum / float64(max(len(stab), 1)), "rounds"},
	}
	batchRate := make([]float64, len(ph.outs))
	for i, o := range ph.outs {
		batchRate[i] = float64(o.rounds) / o.wall.Seconds()
	}
	// The latency tail and the largest stabilisation time are printed
	// but not declared as bounded metrics: on a shared 2-vCPU host the
	// tail spreads by half between runs of the same code, and the
	// maximum over a few hundred trials swings with the seed.
	detail := map[string]any{
		"latency_op":           w.op,
		"latency_cell_p50":     p50s,
		"latency_tail_q":       w.tail,
		"latency_cell_tail":    tails,
		"stab_samples":         len(stab),
		"stab_rounds_max":      stabMax,
		"rounds":               ph.rounds(),
		"trials":               trials,
		"measured_wall_s":      ph.wall.Seconds(),
		"batch_rounds_per_s":   batchRate,
		"overall_rounds_per_s": float64(ph.rounds()) / ph.wall.Seconds(),
	}
	return m, detail, nil
}

// perLayerUnits lists every per-layer metric with its unit. Every
// traced run reports all of them; a layer the workload does not run
// reads 0.
var perLayerUnits = []struct{ name, unit string }{
	{"alg.scalar_calls_per_round", "count"},
	{"alg.batch_calls_per_round", "count"},
	{"alg.sliced_calls_per_round", "count"},
	{"alg.step_ns_per_call", "ns"},
	{"alg.step_us_per_round", "us"},
	{"adversary.calls_per_round", "count"},
	{"adversary.us_per_round", "us"},
	{"sim.stepped_frac", "frac"},
	{"sim.self_us_per_round", "us"},
	{"harness.memo_hits", "count"},
	{"harness.memo_misses", "count"},
	{"harness.memo_hit_ratio", "frac"},
	{"harness.worker_busy_frac", "frac"},
	{"harness.self_us_per_trial", "us"},
	{"registry.build_ms", "ms"},
	{"live.step_union_us_per_round", "us"},
	{"live.engine_self_us_per_round", "us"},
	{"live.dropped_per_round", "count"},
	{"live.suppressed_per_round", "count"},
	{"live.timed_out_node_rounds", "count"},
	{"live.stale_messages", "count"},
	{"live.decode_errors", "count"},
	{"pull.stepall_us_per_round", "us"},
	{"pull.self_us_per_round", "us"},
	{"pull.adversary_calls_per_round", "count"},
	{"pull.pulls_per_round", "count"},
	{"go.gc_cycles_per_kround", "count"},
	{"go.gc_pause_us_per_round", "us"},
	{"trace.overhead_frac", "frac"},
	{"trace.spans_per_round", "count"},
}

// perLayer derives the per-layer metrics of a traced phase. plain is
// the untraced run of the same leading batches, for tracing overhead.
// Per-round figures are per logical round; totals (memo lookups, live
// health counters) cover the leading exactBatches, so they are exact
// per seed.
func perLayer(w *workload, plain, ph phase, tr *tracer, buildMs float64) (map[string]metric, map[string]any) {
	rounds := float64(ph.rounds())
	per := func(x float64) float64 { return x / rounds }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var trials int
	var busy, workerWall int64
	var polls, dropped, suppressed uint64
	var exact liveCounters
	var memoHits, memoMiss uint64
	var plainWall, tracedWall time.Duration
	for i, o := range ph.outs {
		trials += o.trials
		busy += o.busyNs
		workerWall += int64(o.workers) * int64(o.wall)
		polls += o.polls
		dropped += o.live.dropped
		suppressed += o.live.suppressed
		if i < w.exactBatches {
			memoHits += o.memoHits
			memoMiss += o.memoMiss
			exact.timedOut += o.live.timedOut
			exact.stale += o.live.stale
			exact.decodeErrors += o.live.decodeErrors
			plainWall += plain.outs[i].wall
			tracedWall += o.wall
		}
	}
	algNs := tr.ns[kindStep] + tr.ns[kindStepAll] + tr.ns[kindStepAllSliced]
	algCalls := tr.calls[kindStep] + tr.calls[kindStepAll] + tr.calls[kindStepAllSliced]
	v := map[string]float64{
		"alg.scalar_calls_per_round": per(float64(tr.calls[kindStep])),
		"alg.batch_calls_per_round":  per(float64(tr.calls[kindStepAll])),
		"alg.sliced_calls_per_round": per(float64(tr.calls[kindStepAllSliced])),
		"alg.step_ns_per_call":       float64(algNs) / float64(max(algCalls, 1)),
		"alg.step_us_per_round":      per(us(algNs)),
		"adversary.calls_per_round":  per(float64(tr.calls[kindMessageRow] + tr.msgs)),
		"adversary.us_per_round":     per(us(tr.ns[kindMessageRow] + tr.msgNs)),
		"registry.build_ms":          buildMs,
		"go.gc_cycles_per_kround":    per(1000 * float64(ph.gcCycles)),
		"go.gc_pause_us_per_round":   per(float64(ph.gcPauseNs) / 1e3),
		"trace.overhead_frac":        tracedWall.Seconds()/plainWall.Seconds() - 1,
		"trace.spans_per_round":      per(float64(tr.spanCount())),
	}
	if w.engine == "sim" || w.engine == "pull" {
		v["harness.worker_busy_frac"] = float64(busy) / float64(max(workerWall, 1))
		v["harness.self_us_per_trial"] = us(workerWall-busy) / float64(max(trials, 1))
		v["harness.memo_hits"] = float64(memoHits)
		v["harness.memo_misses"] = float64(memoMiss)
		if look := memoHits + memoMiss; look > 0 {
			v["harness.memo_hit_ratio"] = float64(memoHits) / float64(look)
		}
	}
	switch w.engine {
	case "sim":
		v["sim.stepped_frac"] = per(float64(polls))
		v["sim.self_us_per_round"] = per(us(tr.self[kindTrial]))
	case "pull":
		v["pull.stepall_us_per_round"] = per(us(tr.ns[kindPullStepAll]))
		v["pull.self_us_per_round"] = per(us(tr.self[kindTrial]))
		v["pull.adversary_calls_per_round"] = per(float64(tr.msgs))
		v["pull.pulls_per_round"] = per(float64(pullsPerRound * tr.calls[kindPullStepAll]))
	case "live":
		v["live.step_union_us_per_round"] = per(us(tr.covered[kindRound]))
		v["live.engine_self_us_per_round"] = per(us(tr.self[kindRound]))
		v["live.dropped_per_round"] = per(float64(dropped))
		v["live.suppressed_per_round"] = per(float64(suppressed))
		v["live.timed_out_node_rounds"] = float64(exact.timedOut)
		v["live.stale_messages"] = float64(exact.stale)
		v["live.decode_errors"] = float64(exact.decodeErrors)
	}
	m := make(map[string]metric, len(perLayerUnits))
	for _, u := range perLayerUnits {
		m[u.name] = metric{v[u.name], u.unit}
	}
	detail := map[string]any{
		"rounds":            ph.rounds(),
		"trials":            trials,
		"exact_batches":     w.exactBatches,
		"plain_prefix_s":    plainWall.Seconds(),
		"traced_prefix_s":   tracedWall.Seconds(),
		"kernel_polls":      polls,
		"adversary_message": tr.msgs,
	}
	return m, detail
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-resident-set count for this
// process, so the next peakRSSMB covers only what ran in between. Where
// the kernel refuses, peaks stay cumulative, which only overstates.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set in MB since exec or
// the last resetPeakRSS: VmHWM, falling back to getrusage.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runContext records what a result was measured on and with.
func runContext(w *workload, seed int64, secs int, traced bool) map[string]any {
	return map[string]any{
		"workload":      w.name,
		"engine":        w.engine,
		"params":        w.params,
		"seed":          seed,
		"seconds":       secs,
		"traced":        traced,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit(),
		"source_sha256": sourceHash(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit returns the git commit of the checkout the benchmark runs
// from, or "unknown" when that directory is not the top of a git work
// tree (a checkout nested in another repository must not report the
// outer one's commit).
func commit() string {
	b, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	wd, werr := os.Getwd()
	if err != nil || werr != nil {
		return "unknown"
	}
	top, head, ok := strings.Cut(strings.TrimSpace(string(b)), "\n")
	if !ok || filepath.Clean(top) != filepath.Clean(wd) {
		return "unknown"
	}
	return head
}

// sourceHash identifies the measured program where no commit is
// available: a SHA-256 over the root go.mod and every file under
// internal/, in path order.
func sourceHash() string {
	var paths []string
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range append([]string{"go.mod"}, paths...) {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// errCheck collects contract failures of one batch.
type errCheck struct{ out *batchOut }

// check counts one contract check, recording a failure when ok is
// false.
func (c errCheck) check(ok bool, format string, args ...any) {
	c.out.attempted++
	if !ok {
		c.out.failures = append(c.out.failures, fmt.Sprintf(format, args...))
	}
}

var errNoBound = errors.New("stack declares no stabilisation bound")
