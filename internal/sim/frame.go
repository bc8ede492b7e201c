package sim

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
)

// Counter is what a run frame needs of an algorithm in either model:
// its size, counter modulus, state space and output map. alg.Algorithm
// and pull.Algorithm both satisfy it.
type Counter interface {
	N() int
	C() int
	StateSpace() uint64
	Output(node int, s alg.State) int
}

// FrameConfig is the model-independent part of a run configuration;
// the fields mean what the same-named Config fields mean.
type FrameConfig struct {
	// Engine prefixes every error message ("sim", "pull").
	Engine    string
	Alg       Counter
	Faulty    []int
	Adv       adversary.Adversary
	Seed      int64
	MaxRounds uint64
	Window    uint64
	Init      []alg.State
	StopEarly bool
	OnRound   func(round uint64, states []alg.State, outputs []int)
}

// Frame is the lockstep run contract shared by the broadcast simulator
// and the pulling-model simulator (Sections 2 and 5 of the paper):
// validated arbitrary initial states, up to f Byzantine nodes answered
// by an adversary, and stabilisation detected as "all correct nodes
// count modulo c in agreement from round t on". It owns the run's
// working set, its seed streams, the adversary view and the detector;
// an engine contributes only the stepping between Observe and Advance:
//
//	fr, err := OpenFrame(fc)
//	defer fr.Close()
//	for round := uint64(0); round < maxRounds; round++ {
//		if _, _, stop := fr.Observe(round); stop { break }
//		// step every correct node into the next-state vector
//		if err := fr.Advance(); err != nil { ... }
//	}
//	stabilised, time, rounds, violations := fr.Verdict()
//
// Campaign trials open frames by the million, so frames recycle
// through a sync.Pool and are re-seeded on reuse, which reproduces the
// seed streams of freshly allocated ones exactly. Runs with an OnRound
// observer get an unpooled frame: the observer receives the states and
// outputs slices directly and may retain them (the figure harnesses
// record traces), which recycling would corrupt.
type Frame struct {
	engine    string
	counter   Counter
	space     uint64
	stopEarly bool
	onRound   func(round uint64, states []alg.State, outputs []int)
	pooled    bool

	faulty  []bool
	correct int
	states  []alg.State
	next    []alg.State
	outputs []int

	adv  adversary.Adversary
	view adversary.View
	det  Detector

	rounds uint64

	// Seed streams, all derived from the master seed by seed.
	seeder     *rand.Rand
	initRng    *rand.Rand
	advRng     *rand.Rand
	randomised bool
	nodeSrcs   []lazySource
	nodeRngs   []*rand.Rand // nodeRngs[v] wraps &nodeSrcs[v] once node v first asks
	nilRngs    []*rand.Rand

	// kernel is the broadcast kernel's working set (see kernel.go); it
	// recycles with the frame and stays empty in pulling-model runs.
	kernel kernelScratch
}

var framePool sync.Pool

// OpenFrame validates fc and prepares a run: the fault mask, the seed
// streams, the initial configuration (fc.Init, or uniform draws from
// the init stream), the adversary view and the detector. The caller
// must Close the frame when the run ends.
func OpenFrame(fc FrameConfig) (*Frame, error) {
	a := fc.Alg
	if a == nil {
		return nil, fmt.Errorf("%s: nil algorithm", fc.Engine)
	}
	if fc.MaxRounds == 0 {
		return nil, fmt.Errorf("%s: MaxRounds must be positive", fc.Engine)
	}
	n, c, space := a.N(), a.C(), a.StateSpace()
	if c < 2 {
		return nil, fmt.Errorf("%s: algorithm has counter modulus %d < 2", fc.Engine, c)
	}
	var f *Frame
	if fc.OnRound == nil {
		f, _ = framePool.Get().(*Frame)
		if f == nil {
			f = &Frame{}
		}
		f.pooled = true
	} else {
		f = &Frame{}
	}
	f.resize(n)
	f.engine, f.counter, f.space = fc.Engine, a, space
	f.stopEarly, f.onRound = fc.StopEarly, fc.OnRound
	f.rounds = 0

	f.correct = n
	for _, i := range fc.Faulty {
		if i < 0 || i >= n {
			f.Close()
			return nil, fmt.Errorf("%s: faulty node %d out of range [0,%d)", fc.Engine, i, n)
		}
		if f.faulty[i] {
			f.Close()
			return nil, fmt.Errorf("%s: faulty node %d listed twice", fc.Engine, i)
		}
		f.faulty[i] = true
		f.correct--
	}

	advBase := f.seed(fc.Seed, !alg.IsDeterministic(a))
	if fc.Init != nil {
		if len(fc.Init) != n {
			f.Close()
			return nil, fmt.Errorf("%s: Init has %d states, want %d", fc.Engine, len(fc.Init), n)
		}
		for i, s := range fc.Init {
			if s >= space {
				f.Close()
				return nil, fmt.Errorf("%s: Init[%d] = %d outside state space %d", fc.Engine, i, s, space)
			}
		}
		copy(f.states, fc.Init)
	} else {
		for i := range f.states {
			f.states[i] = uniformState(f.initRng, space)
		}
	}

	f.adv = fc.Adv
	if f.adv == nil {
		f.adv = adversary.Equivocate{}
	}
	f.view = adversary.View{States: f.states, Faulty: f.faulty, Space: space, Rng: f.advRng}
	f.view.SetBaseSeed(advBase)
	f.det = *NewDetector(c, fc.Window)
	return f, nil
}

// Close returns a pooled frame to the pool, dropping the references a
// pooled frame would otherwise keep alive across campaigns.
func (f *Frame) Close() {
	if !f.pooled {
		return
	}
	f.counter, f.adv, f.onRound = nil, nil, nil
	f.view = adversary.View{}
	framePool.Put(f)
}

// resize (re)provisions the working set for n nodes and clears the
// fault mask; the state slices need no clearing because every run
// fully overwrites them before reading.
func (f *Frame) resize(n int) {
	if cap(f.faulty) < n {
		f.faulty = make([]bool, n)
		f.states = make([]alg.State, n)
		f.next = make([]alg.State, n)
		f.outputs = make([]int, n)
	}
	f.faulty = f.faulty[:n]
	clear(f.faulty)
	f.states = f.states[:n]
	f.next = f.next[:n]
	f.outputs = f.outputs[:n]
	if f.seeder == nil {
		f.seeder = rand.New(rand.NewSource(0))
		f.initRng = rand.New(rand.NewSource(0))
		f.advRng = rand.New(rand.NewSource(0))
	}
}

// seed derives the run's independent streams from the master seed in
// a fixed order: initial states, the adversary, the adversary's base
// seed, then one stream per node.
//
// Deterministic algorithms never consult the node streams, so their
// seed draws are skipped. They are the last draws taken from the
// master seeder, so skipping them leaves every other stream — and
// therefore every historical result — untouched.
func (f *Frame) seed(seed int64, randomised bool) (advBase int64) {
	f.seeder.Seed(seed)
	f.initRng.Seed(f.seeder.Int63())
	f.advRng.Seed(f.seeder.Int63())
	advBase = f.seeder.Int63()
	f.randomised = randomised
	if randomised {
		n := len(f.states)
		if len(f.nodeSrcs) < n {
			// Fresh slices: the Rands of the old ones point into them.
			f.nodeSrcs = make([]lazySource, n)
			f.nodeRngs = make([]*rand.Rand, n)
		}
		for i := 0; i < n; i++ {
			f.nodeSrcs[i].Seed(f.seeder.Int63())
		}
	}
	return advBase
}

// Rng returns node v's private random stream, nil for deterministic
// algorithms. A node's stream costs nothing until it is first asked
// for, and its seed scramble is deferred to its first draw (see
// lazySource), so million-node runs pay only for nodes that flip coins.
func (f *Frame) Rng(v int) *rand.Rand {
	if !f.randomised {
		return nil
	}
	if f.nodeRngs[v] == nil {
		f.nodeRngs[v] = rand.New(&f.nodeSrcs[v])
	}
	return f.nodeRngs[v]
}

// Rngs returns every node's stream as one length-n slice, the form the
// broadcast batch kernels take: all entries materialised for
// randomised algorithms, all nil for deterministic ones.
func (f *Frame) Rngs() []*rand.Rand {
	n := len(f.states)
	if !f.randomised {
		if cap(f.nilRngs) < n {
			f.nilRngs = make([]*rand.Rand, n)
		}
		return f.nilRngs[:n]
	}
	for v := 0; v < n; v++ {
		f.Rng(v)
	}
	return f.nodeRngs[:n]
}

// lazySource defers the costly parts of a math/rand source — the ~5 KB
// allocation and the ~600-iteration seed scramble — until the stream
// is first consulted. Values are bit-identical to an eagerly seeded
// source: Seed only records the seed, and the first draw performs
// exactly the scramble the eager path would have.
type lazySource struct {
	inner   rand.Source64
	pending int64
	dirty   bool
}

func (l *lazySource) Seed(seed int64) { l.pending, l.dirty = seed, true }

func (l *lazySource) materialize() {
	if !l.dirty {
		return
	}
	if l.inner == nil {
		l.inner = rand.NewSource(l.pending).(rand.Source64)
	} else {
		l.inner.Seed(l.pending)
	}
	l.dirty = false
}

func (l *lazySource) Int63() int64 {
	l.materialize()
	return l.inner.Int63()
}

func (l *lazySource) Uint64() uint64 {
	l.materialize()
	return l.inner.Uint64()
}

// Observe runs the model-independent start of a round: it computes
// every node's output, reports them to the OnRound observer, feeds the
// correct nodes' verdict to the detector and points the adversary view
// at this round. It returns whether the correct nodes agreed and on
// which value, and whether the run should stop here (stabilisation
// confirmed in a StopEarly run).
func (f *Frame) Observe(round uint64) (agree bool, common int, stop bool) {
	agree, common = true, -1
	outputs, faulty := f.outputs, f.faulty
	for i, s := range f.states {
		out := f.counter.Output(i, s)
		outputs[i] = out
		if faulty[i] {
			continue
		}
		if common == -1 {
			common = out
		} else if out != common {
			agree = false
		}
	}
	if f.onRound != nil {
		f.onRound(round, f.states, f.outputs)
	}
	f.rounds = round + 1
	f.view.Round = round
	return agree, common, f.det.Observe(round, agree, common) && f.stopEarly
}

// Advance ends a round: it checks the next state of every correct node
// and makes it current. Faulty nodes keep their start-of-round entry,
// which no one may rely on.
func (f *Frame) Advance() error {
	states, faulty, space := f.states, f.faulty, f.space
	for v, s := range f.next {
		if faulty[v] {
			continue
		}
		if s >= space {
			return fmt.Errorf("%s: node %d stepped outside state space (%d >= %d)", f.engine, v, s, space)
		}
		states[v] = s
	}
	return nil
}

// Verdict reports the run's detector outcome so far: whether
// stabilisation was confirmed, from which round, how many rounds were
// observed, and how many rounds broke counting after the confirmation.
func (f *Frame) Verdict() (stabilised bool, time, rounds, violations uint64) {
	return f.det.Stabilised(), f.det.Time(), f.rounds, f.det.Violations()
}

// N returns the network size.
func (f *Frame) N() int { return len(f.states) }

// Correct returns the number of correct nodes.
func (f *Frame) Correct() int { return f.correct }

// Faulty reports whether node v is Byzantine.
func (f *Frame) Faulty(v int) bool { return f.faulty[v] }

// States returns the start-of-round state vector. Steppers must not
// mutate it.
func (f *Frame) States() []alg.State { return f.states }

// Set records node v's next state.
func (f *Frame) Set(v int, s alg.State) { f.next[v] = s }

// Message returns the state faulty node from presents to receiver to
// this round, reduced into the state space.
func (f *Frame) Message(from, to int) alg.State {
	return f.adv.Message(&f.view, from, to) % f.space
}
