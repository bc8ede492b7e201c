package sim

// RunReference exposes the retained scalar reference loop to the
// external test package: the kernel-equivalence differential suite
// (kernel_differential_test.go) and the BenchmarkKernel_* comparisons
// hold the vectorized kernel bit-identical to — and measure it against
// — this path. It honours cfg.StopEarly as set by the caller.
func RunReference(cfg Config) (Result, error) { return runReference(cfg) }

// FastForwardEligible exposes the fast-forward gate to the external
// test package: the eligibility tests pin exactly which configurations
// may enter the engine.
func FastForwardEligible(cfg Config) (period uint64, ok bool) {
	return fastForwardEligible(&cfg)
}

// SetConfigHashForTest swaps the fast-forward configuration hash and
// returns a restore func. The collision property tests install
// degenerate hashes (constant, single-bit) to prove that correctness
// rests entirely on the full configuration verification: every round
// then hash-matches the detector's stacked entries and only the
// verified comparisons may conclude a cycle.
func SetConfigHashForTest(h func([]State) uint64) (restore func()) {
	old := ffHash
	ffHash = h
	return func() { ffHash = old }
}

// State re-exports alg.State for the hash-override hook signature.
type State = uint64

// FFMemoConfigLimit exposes the fast-forward configuration-history
// window, so the memo tests can place a confirmation beyond it.
const FFMemoConfigLimit = ffMemoConfigLimit
