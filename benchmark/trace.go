package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// epoch anchors every timestamp the benchmark takes, traced or not.
var epoch = time.Now()

// clock returns monotonic nanoseconds since epoch.
func clock() int64 { return int64(time.Since(epoch)) }

// spanKind names a layer boundary the traced run times from outside
// the program.
type spanKind uint8

const (
	kindTrial         spanKind = iota // harness Scenario.Run: one trial
	kindRound                         // live: one OnRound-to-OnRound round
	kindStep                          // alg.Algorithm.Step
	kindStepAll                       // alg.BatchStepper.StepAll
	kindStepAllSliced                 // alg.BitSliceStepper.StepAllSliced
	kindPullStepAll                   // pull.BatchStepper.StepAll
	kindMessageRow                    // adversary.RowMessenger.MessageRow
	numKinds
)

var kindNames = [numKinds]string{
	"harness.trial", "live.round", "alg.Step", "alg.StepAll",
	"alg.StepAllSliced", "pull.StepAll", "adversary.MessageRow",
}

func (k spanKind) MarshalText() ([]byte, error) { return []byte(kindNames[k]), nil }

// span is one timed call. Spans of one trial or live round share
// Group; Parent indexes the causing span within the group (-1 for the
// group's root).
type span struct {
	Kind   spanKind `json:"kind"`
	Parent int32    `json:"parent"`
	Group  uint32   `json:"group"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
}

// recorder receives the spans of one group. Wrapped algorithms and
// adversaries write into it; message counts it aggregates instead of
// keeping, since per-pair adversary calls run tens of thousands of
// times per round.
type recorder interface {
	now() int64
	record(k spanKind, start, end int64)
	message(ns int64)
}

// group collects the spans of one trial on the goroutine running it.
// spans[0] is the root, set when the trial ends.
type group struct {
	tr    *tracer
	id    uint32
	spans []span
	msgs  uint64
	msgNs int64
}

func (g *group) now() int64 { return g.tr.now() }

func (g *group) record(k spanKind, start, end int64) {
	g.spans = append(g.spans, span{Kind: k, Parent: 0, Group: g.id, Start: start, End: end})
}

func (g *group) message(ns int64) {
	g.msgs++
	g.msgNs += ns
}

// lockedRecorder collects the Step spans that live node goroutines
// record concurrently, until the synchroniser drains them at the next
// round boundary.
type lockedRecorder struct {
	tr    *tracer
	mu    sync.Mutex
	spans []span
}

func (l *lockedRecorder) now() int64 { return l.tr.now() }

func (l *lockedRecorder) record(k spanKind, start, end int64) {
	l.mu.Lock()
	l.spans = append(l.spans, span{Kind: k, Start: start, End: end})
	l.mu.Unlock()
}

func (l *lockedRecorder) message(int64) {}

// drain moves the recorded spans into dst and returns it.
func (l *lockedRecorder) drain(dst []span) []span {
	l.mu.Lock()
	dst = append(dst, l.spans...)
	l.spans = l.spans[:0]
	l.mu.Unlock()
	return dst
}

// keepSpans caps the spans kept in memory for the trace file (32 bytes
// each). Beyond it spans are still folded into the layer totals.
const keepSpans = 1 << 17

// tracer folds completed groups into per-layer totals. Groups are
// folded whole, so self times are computed against exactly the
// children the root caused.
type tracer struct {
	mu      sync.Mutex
	nextID  uint32
	calls   [numKinds]uint64
	ns      [numKinds]int64
	self    [numKinds]int64 // root kinds: duration minus children's union
	covered [numKinds]int64 // root kinds: union of children
	msgs    uint64
	msgNs   int64
	kept    []span
	dropped uint64
	ivs     []interval
	free    []*group
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) now() int64 { return clock() }

// newGroup returns an empty group with a fresh id.
func (t *tracer) newGroup() *group {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	var g *group
	if n := len(t.free); n > 0 {
		g, t.free = t.free[n-1], t.free[:n-1]
		*g = group{spans: g.spans[:0]}
	} else {
		g = &group{}
	}
	g.tr, g.id = t, t.nextID
	g.spans = append(g.spans, span{Parent: -1, Group: g.id})
	return g
}

// fold closes g with its root span and adds it to the totals. g must
// not be used afterwards.
func (t *tracer) fold(g *group, root spanKind, start, end int64) {
	g.spans[0].Kind, g.spans[0].Start, g.spans[0].End = root, start, end
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ivs = t.ivs[:0]
	for _, s := range g.spans {
		t.calls[s.Kind]++
		t.ns[s.Kind] += s.End - s.Start
	}
	for _, s := range g.spans[1:] {
		t.ivs = append(t.ivs, interval{s.Start, s.End})
	}
	self, covered := selfTime(interval{start, end}, t.ivs)
	t.self[root] += self
	t.covered[root] += covered
	t.msgs += g.msgs
	t.msgNs += g.msgNs
	if room := keepSpans - len(t.kept); room >= len(g.spans) {
		t.kept = append(t.kept, g.spans...)
	} else {
		t.dropped += uint64(len(g.spans))
	}
	t.free = append(t.free, g)
}

// spanCount returns how many spans were folded.
func (t *tracer) spanCount() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, c := range t.calls {
		n += c
	}
	return n
}

// writeSpans writes the kept spans as NDJSON to path, creating its
// directory.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
