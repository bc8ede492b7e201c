package alg

// Configuration capture and hashing for the simulator's
// periodicity-aware fast-forward engine (internal/sim).
//
// A deterministic algorithm under a snapshottable adversary evolves the
// global configuration as a pure function, so every trajectory is
// eventually periodic. The engine detects the cycle by hashing the
// configuration every round and fast-forwards the verification tail
// analytically. Two pieces live here because they belong to the
// algorithm formalism, not the simulator:
//
//   - ConfigCapturer, the Snapshot/Restore-style hook for algorithms
//     whose configuration is not fully explicit in the dense state
//     vector. The (X, g, h) formalism makes per-node state explicit —
//     Step is a pure function of the received vector — so every
//     built-in construction needs nothing; the hook exists so a future
//     algorithm carrying hidden per-node words can still opt into
//     fast-forwarding instead of being silently mis-cycled.
//   - HashConfig / HashConfigWord, the cheap incremental configuration
//     hash. Collisions are harmless — the engine verifies every hash
//     match by full configuration comparison before trusting it — so
//     the hash only needs to be fast and well-mixed, not
//     cryptographic.

// ConfigCapturer is implemented by algorithms whose full configuration
// is not the explicit state vector alone. AppendConfig appends every
// hidden word that influences future transitions to dst and returns
// the extended slice; the fast-forward engine includes the words in
// configuration hashing and in the full comparison that verifies cycle
// candidates. The number of appended words must be constant for a
// given algorithm instance, and restoring the appended words plus the
// state vector must fully determine the future execution.
//
// Appended words must not depend on the identity or stored states of
// faulty nodes: the engine canonicalises faulty slots so that
// trajectories agreeing on the correct nodes can merge across trials.
//
// None of the built-in constructions implement it: the alg.State
// encoding already carries the complete per-node state.
type ConfigCapturer interface {
	AppendConfig(dst []State) []State
}

// AppendConfig appends the full configuration of a run — the state
// vector plus any hidden words the algorithm exposes through
// ConfigCapturer — to dst and returns the extended slice. This is the
// configuration the fast-forward engine hashes, stacks and compares.
func AppendConfig(a Algorithm, states []State, dst []State) []State {
	dst = append(dst, states...)
	if cc, ok := a.(ConfigCapturer); ok {
		dst = cc.AppendConfig(dst)
	}
	return dst
}

// configHashOffset/configHashPrime are the FNV-1a 64-bit parameters;
// each word is avalanched through a splitmix64-style finalizer before
// entering the chain, so single-bit state differences flip about half
// of the digest even for the tiny state spaces the baselines use.
const (
	configHashOffset = 0xcbf29ce484222325
	configHashPrime  = 0x100000001b3
)

// HashConfig hashes a configuration word vector. Equal vectors hash
// equal; the engine treats a hash match only as a cycle *candidate*
// and verifies it by full comparison, so collisions cost one compare,
// never correctness.
func HashConfig(words []State) uint64 {
	h := uint64(configHashOffset)
	for _, w := range words {
		h = HashConfigWord(h, w)
	}
	return h
}

// HashConfigWord folds one configuration word into a running digest —
// the incremental form of HashConfig for callers that stream words.
// HashConfig(ws) == foldl HashConfigWord over ws starting from the
// offset basis.
func HashConfigWord(h uint64, w State) uint64 {
	return (h ^ mix64(w)) * configHashPrime
}

// ConfigHashSeed returns the empty-vector digest, the starting value
// for incremental HashConfigWord chains.
func ConfigHashSeed() uint64 { return configHashOffset }

// mix64 is the splitmix64 output finalizer: a cheap invertible
// avalanche so that dense low-entropy states (0, 1, 2, ...) spread
// over the full 64-bit space before the FNV chain combines them.
func mix64(w uint64) uint64 {
	w ^= w >> 30
	w *= 0xbf58476d1ce4e5b9
	w ^= w >> 27
	w *= 0x94d049bb133111eb
	w ^= w >> 31
	return w
}
