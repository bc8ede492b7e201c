package alg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTallyBasics(t *testing.T) {
	var tl Tally // zero value must be usable
	tl.Add(3)
	tl.Add(3)
	tl.Add(5)
	if tl.Total() != 3 {
		t.Fatalf("Total = %d, want 3", tl.Total())
	}
	if tl.Count(3) != 2 || tl.Count(5) != 1 || tl.Count(9) != 0 {
		t.Fatalf("unexpected counts: %d %d %d", tl.Count(3), tl.Count(5), tl.Count(9))
	}
	v, ok := tl.Majority()
	if !ok || v != 3 {
		t.Fatalf("Majority = %d,%v want 3,true", v, ok)
	}
	tl.Reset()
	if tl.Total() != 0 || tl.Count(3) != 0 {
		t.Fatal("Reset did not clear tally")
	}
}

func TestMajorityRequiresStrictMajority(t *testing.T) {
	tests := []struct {
		name   string
		values []uint64
		want   uint64
		wantOK bool
	}{
		{"clear majority", []uint64{1, 1, 1, 2}, 1, true},
		{"exactly half is not a majority", []uint64{1, 1, 2, 2}, 0, false},
		{"empty", nil, 0, false},
		{"all same", []uint64{7, 7, 7}, 7, true},
		{"plurality is not majority", []uint64{1, 1, 2, 3, 4}, 0, false},
		{"majority of odd", []uint64{9, 9, 9, 1, 2}, 9, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tl := NewTally(len(tt.values))
			for _, v := range tt.values {
				tl.Add(v)
			}
			v, ok := tl.Majority()
			if ok != tt.wantOK || (ok && v != tt.want) {
				t.Fatalf("Majority(%v) = %d,%v want %d,%v", tt.values, v, ok, tt.want, tt.wantOK)
			}
		})
	}
}

func TestMajorityDefaultsToZero(t *testing.T) {
	if got := Majority([]uint64{1, 2, 3, 4}); got != 0 {
		t.Fatalf("Majority with no absolute majority = %d, want 0", got)
	}
	if got := Majority([]uint64{5, 5, 5, 4}); got != 5 {
		t.Fatalf("Majority = %d, want 5", got)
	}
}

// TestMajorityMatchesTally pins the Boyer–Moore Majority to the
// Tally verdict (majority value, else 0) on seeded inputs over small
// alphabets — so ties and near-majorities are common — including the
// ∞ key and empty slices.
func TestMajorityMatchesTally(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 4000; trial++ {
		alphabet := []uint64{0, 1, 7, tallyInfinity}[:1+rng.Intn(4)]
		values := make([]uint64, rng.Intn(12))
		for i := range values {
			values[i] = alphabet[rng.Intn(len(alphabet))]
		}
		tl := NewTally(len(values))
		for _, v := range values {
			tl.Add(v)
		}
		want, _ := tl.Majority()
		if got := Majority(values); got != want {
			t.Fatalf("Majority(%v) = %d, Tally verdict %d", values, got, want)
		}
	}
}

func TestMinValueWithCountAbove(t *testing.T) {
	tl := NewTally(8)
	for _, v := range []uint64{4, 4, 4, 2, 2, 9, 9, 9} {
		tl.Add(v)
	}
	tests := []struct {
		threshold int
		want      uint64
		wantOK    bool
	}{
		{0, 2, true},  // every value occurs > 0 times; min is 2
		{1, 4, true},  // values with count > 1: {4,9,2}; 2 has count 2 > 1, min 2? no: 2 occurs twice, 2 > 1, so min is 2
		{2, 4, true},  // values with count > 2: {4,9}; min 4
		{3, 0, false}, // nothing occurs more than 3 times
	}
	// Fix the expectation for threshold 1: counts are 4->3, 2->2, 9->3.
	tests[1].want = 2
	for _, tt := range tests {
		v, ok := tl.MinValueWithCountAbove(tt.threshold)
		if ok != tt.wantOK || (ok && v != tt.want) {
			t.Fatalf("MinValueWithCountAbove(%d) = %d,%v want %d,%v",
				tt.threshold, v, ok, tt.want, tt.wantOK)
		}
	}
}

// TestQuickMajorityUnique checks the core soundness property the paper
// relies on: there can be at most one absolute majority value, and if a
// value is held by more than half of the proposals it is always found.
func TestQuickMajorityUnique(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n%13) + 1
		values := make([]uint64, size)
		for i := range values {
			values[i] = uint64(rng.Intn(4))
		}
		tl := NewTally(size)
		for _, v := range values {
			tl.Add(v)
		}
		maj, ok := tl.Majority()
		// Recompute by brute force.
		var bruteOK bool
		var brute uint64
		for cand := uint64(0); cand < 4; cand++ {
			count := 0
			for _, v := range values {
				if v == cand {
					count++
				}
			}
			if 2*count > size {
				if bruteOK {
					return false // two absolute majorities: impossible
				}
				brute, bruteOK = cand, true
			}
		}
		if ok != bruteOK {
			return false
		}
		return !ok || maj == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

type fakeAlg struct{ det bool }

func (fakeAlg) N() int                              { return 1 }
func (fakeAlg) F() int                              { return 0 }
func (fakeAlg) C() int                              { return 2 }
func (fakeAlg) StateSpace() uint64                  { return 6 }
func (fakeAlg) Step(int, []State, *rand.Rand) State { return 0 }
func (fakeAlg) Output(int, State) int               { return 0 }
func (f fakeAlg) Deterministic() bool               { return f.det }

func TestIsDeterministicAndStateBits(t *testing.T) {
	if !IsDeterministic(fakeAlg{det: true}) {
		t.Error("IsDeterministic(det) = false")
	}
	if IsDeterministic(fakeAlg{det: false}) {
		t.Error("IsDeterministic(!det) = true")
	}
	if got := StateBits(fakeAlg{}); got != 3 {
		t.Errorf("StateBits = %d, want 3", got)
	}
}
