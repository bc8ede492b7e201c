package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// TrajectoryKey identifies one memoised trajectory fact within a
// campaign: the algorithm build, the exact faulty set, the adversary
// strategy, the adversary's round phase (round mod its snapshot
// period) and the configuration hash. Deterministic dynamics make the
// future of a configuration a pure function of exactly these
// coordinates, so a fact recorded by one trial is valid for every
// other trial of the campaign that reaches the same key — the value
// attached never depends on which trial stored it.
//
// The hash component is only a candidate filter: the simulator
// verifies every hit against the full configuration before trusting
// it, so hash collisions cost a lookup and a compare, never
// correctness.
type TrajectoryKey struct {
	// Alg identifies the algorithm build (name plus parameters).
	Alg string
	// Faulty is the canonical (ascending, comma-joined) faulty set.
	Faulty string
	// Adversary is the strategy name.
	Adversary string
	// Phase is the round number modulo the adversary's snapshot
	// period (0 for the round-oblivious strategies).
	Phase uint64
	// Hash is the configuration hash.
	Hash uint64
}

// DefaultTrajectoryMemoCapacity bounds a memo built with capacity 0.
const DefaultTrajectoryMemoCapacity = 4096

// TrajectoryMemo is the bounded, concurrency-safe memo table the
// trials of one campaign share: trials whose trajectories merge — the
// common case in strided fault-placement compare grids and in the
// conformance suite's Run-then-RunFull replays — skip straight to the
// memoised cycle instead of re-detecting it. The table is append-only
// and first-write-wins: entries are facts about the deterministic
// dynamics, so late or racing writers can only restate them. When the
// capacity is reached further inserts are rejected (bounded memory,
// and the retained entries stay valid); lookups are unaffected.
type TrajectoryMemo struct {
	mu       sync.RWMutex
	capacity int
	m        map[TrajectoryKey]any

	hits     atomic.Uint64
	misses   atomic.Uint64
	rejected atomic.Uint64
}

// NewTrajectoryMemo returns a memo bounded to capacity entries;
// capacity <= 0 selects DefaultTrajectoryMemoCapacity.
func NewTrajectoryMemo(capacity int) *TrajectoryMemo {
	if capacity <= 0 {
		capacity = DefaultTrajectoryMemoCapacity
	}
	return &TrajectoryMemo{capacity: capacity, m: make(map[TrajectoryKey]any)}
}

// Get returns the fact stored under k, if any.
func (m *TrajectoryMemo) Get(k TrajectoryKey) (any, bool) {
	m.mu.RLock()
	v, ok := m.m[k]
	m.mu.RUnlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return v, ok
}

// Add stores v under k unless the memo is full. A key that is already
// present is left untouched (first write wins) and reported as stored:
// concurrent discoverers of the same fact need not distinguish who won.
// The return value reports whether the fact is now in the memo.
func (m *TrajectoryMemo) Add(k TrajectoryKey, v any) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.m[k]; ok {
		return true
	}
	if len(m.m) >= m.capacity {
		m.rejected.Add(1)
		return false
	}
	m.m[k] = v
	return true
}

// Admit reports whether the memo still has room for a new fact, so a
// producer can skip building one that Add would refuse. A refusal is
// counted in Stats as one rejected insert, exactly like the refused
// Add it stands in for.
func (m *TrajectoryMemo) Admit() bool {
	m.mu.RLock()
	full := len(m.m) >= m.capacity
	m.mu.RUnlock()
	if full {
		m.rejected.Add(1)
	}
	return !full
}

// Len returns the number of stored entries.
func (m *TrajectoryMemo) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.m)
}

// Cap returns the entry bound.
func (m *TrajectoryMemo) Cap() int { return m.capacity }

// Stats reports lookup hits, lookup misses and capacity-rejected
// inserts since construction.
func (m *TrajectoryMemo) Stats() (hits, misses, rejected uint64) {
	return m.hits.Load(), m.misses.Load(), m.rejected.Load()
}

// Range calls f for every stored entry until f returns false. The
// iteration order is unspecified; entries are immutable facts, so f
// may retain the values it sees.
func (m *TrajectoryMemo) Range(f func(k TrajectoryKey, v any) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for k, v := range m.m {
		if !f(k, v) {
			return
		}
	}
}

// memoFileSchema versions the Save/Load interchange format; a file
// written by an incompatible revision is rejected loudly instead of
// being half-understood.
const memoFileSchema = "synchcount-trajectory-memo/v1"

// memoFileHeader is the first line of a saved memo.
type memoFileHeader struct {
	Schema string `json:"schema"`
}

// memoFileEntry is one saved fact: the key plus the value serialised by
// the caller's codec. The memo stores opaque values (the simulator owns
// their type), so persistence is split: this package owns the framing
// and the key encoding, the value producer supplies marshal/unmarshal.
type memoFileEntry struct {
	Alg       string          `json:"alg"`
	Faulty    string          `json:"faulty"`
	Adversary string          `json:"adversary"`
	Phase     uint64          `json:"phase"`
	Hash      uint64          `json:"hash,string"`
	Value     json.RawMessage `json:"value"`
}

// Save writes every stored entry as newline-delimited JSON: a schema
// header line, then one line per fact in deterministic (sorted-key)
// order, each value serialised by marshal. Entries are facts about
// deterministic dynamics, so a saved memo loaded by a later process —
// or another machine running the same campaign — yields bit-identical
// results to rediscovering them.
func (m *TrajectoryMemo) Save(w io.Writer, marshal func(v any) (json.RawMessage, error)) error {
	type kv struct {
		k TrajectoryKey
		v any
	}
	m.mu.RLock()
	entries := make([]kv, 0, len(m.m))
	for k, v := range m.m {
		entries = append(entries, kv{k, v})
	}
	m.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].k, entries[j].k
		switch {
		case a.Alg != b.Alg:
			return a.Alg < b.Alg
		case a.Faulty != b.Faulty:
			return a.Faulty < b.Faulty
		case a.Adversary != b.Adversary:
			return a.Adversary < b.Adversary
		case a.Phase != b.Phase:
			return a.Phase < b.Phase
		default:
			return a.Hash < b.Hash
		}
	})
	enc := json.NewEncoder(w)
	if err := enc.Encode(memoFileHeader{Schema: memoFileSchema}); err != nil {
		return err
	}
	for _, e := range entries {
		raw, err := marshal(e.v)
		if err != nil {
			return fmt.Errorf("harness: memo save: key %+v: %w", e.k, err)
		}
		if err := enc.Encode(memoFileEntry{
			Alg:       e.k.Alg,
			Faulty:    e.k.Faulty,
			Adversary: e.k.Adversary,
			Phase:     e.k.Phase,
			Hash:      e.k.Hash,
			Value:     raw,
		}); err != nil {
			return err
		}
	}
	return nil
}

// Load reads a stream written by Save, decoding each value with
// unmarshal (which also sees the entry's key, so it can cross-check
// value against key) and adding the facts to the memo (first write
// wins, the capacity bound applies — a file larger than the memo loads
// a prefix). It returns how many entries were stored. The schema
// header must match; a malformed line fails loudly with its position.
func (m *TrajectoryMemo) Load(r io.Reader, unmarshal func(k TrajectoryKey, data json.RawMessage) (any, error)) (int, error) {
	dec := json.NewDecoder(r)
	var hdr memoFileHeader
	if err := dec.Decode(&hdr); err != nil {
		return 0, fmt.Errorf("harness: memo load: header: %w", err)
	}
	if hdr.Schema != memoFileSchema {
		return 0, fmt.Errorf("harness: memo load: schema %q, want %q", hdr.Schema, memoFileSchema)
	}
	loaded := 0
	for i := 1; ; i++ {
		var e memoFileEntry
		if err := dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) {
				return loaded, nil
			}
			return loaded, fmt.Errorf("harness: memo load: entry %d: %w", i, err)
		}
		k := TrajectoryKey{Alg: e.Alg, Faulty: e.Faulty, Adversary: e.Adversary, Phase: e.Phase, Hash: e.Hash}
		v, err := unmarshal(k, e.Value)
		if err != nil {
			return loaded, fmt.Errorf("harness: memo load: entry %d: %w", i, err)
		}
		if m.Add(k, v) {
			loaded++
		}
	}
}
