package nucleustest

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refHIndex is the literal Definition 5: largest k with >= k elements >= k.
func refHIndex(vals []int32) int32 {
	for k := int32(len(vals)); k >= 1; k-- {
		count := int32(0)
		for _, v := range vals {
			if v >= k {
				count++
			}
		}
		if count >= k {
			return k
		}
	}
	return 0
}

var hIndexCases = [][]int32{
	nil,
	{},
	{0},
	{1},
	{5},
	{0, 0, 0},
	{1, 1, 1},
	{2, 3},       // paper: H({2,3}) = 2
	{2, 2, 2},    // paper: H({2,2,2}) = 2
	{1, 2},       // paper: H({1,2}) = 1
	{4, 3, 3, 2}, // paper: H({4,3,3,2}) = 3
	{2, 2},
	{10, 10, 10},
	{1, 2, 3, 4, 5, 6, 7},
	{7, 6, 5, 4, 3, 2, 1},
	{100},
	{100, 100},
	{0, 5, 0, 5, 0, 5},
	{-3, 2, -1, 2, 7}, // negatives count toward no h
}

func TestHIndexSortKnownCases(t *testing.T) {
	for _, c := range hIndexCases {
		want := refHIndex(c)
		if got := HIndexSort(c); got != want {
			t.Errorf("HIndexSort(%v) = %d, want %d", c, got, want)
		}
	}
}

func TestHIndexLinearKnownCases(t *testing.T) {
	for _, c := range hIndexCases {
		want := refHIndex(c)
		if got := HIndexLinear(c); got != want {
			t.Errorf("HIndexLinear(%v) = %d, want %d", c, got, want)
		}
	}
}

func TestHIndexPaperFigure2Values(t *testing.T) {
	// τ1(a) = H({2,3}) = 2, τ1(b) = H({2,2,2}) = 2, τ2(a) = H({1,2}) = 1.
	if HIndexLinear([]int32{2, 3}) != 2 {
		t.Error("H({2,3}) != 2")
	}
	if HIndexLinear([]int32{2, 2, 2}) != 2 {
		t.Error("H({2,2,2}) != 2")
	}
	if HIndexLinear([]int32{1, 2}) != 1 {
		t.Error("H({1,2}) != 1")
	}
	// Truss example: L = {4,3,3,2}, τ1(ab) = 3.
	if HIndexLinear([]int32{4, 3, 3, 2}) != 3 {
		t.Error("H({4,3,3,2}) != 3")
	}
}

func TestHIndexAllAgreeQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	err := quick.Check(func(raw []uint16) bool {
		vals := make([]int32, len(raw))
		for i, r := range raw {
			vals[i] = int32(r % 50)
		}
		want := refHIndex(vals)
		return HIndexSort(vals) == want && HIndexLinear(vals) == want
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestHIndexBounds(t *testing.T) {
	// H(K) <= |K| and H(K) <= max(K); quick-checked.
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(8))}
	err := quick.Check(func(raw []uint8) bool {
		vals := make([]int32, len(raw))
		var max int32
		for i, r := range raw {
			vals[i] = int32(r)
			if vals[i] > max {
				max = vals[i]
			}
		}
		h := HIndexLinear(vals)
		return h <= int32(len(vals)) && h <= max
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestHIndexMonotone(t *testing.T) {
	// Decreasing any element cannot increase H (monotonicity of H used in
	// the proof of Theorem 1).
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(9))}
	err := quick.Check(func(raw []uint8, pos uint8, dec uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int32, len(raw))
		for i, r := range raw {
			vals[i] = int32(r % 30)
		}
		lowered := append([]int32(nil), vals...)
		p := int(pos) % len(lowered)
		lowered[p] -= int32(dec % 10)
		if lowered[p] < 0 {
			lowered[p] = 0
		}
		return HIndexLinear(lowered) <= HIndexLinear(vals)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHIndexSort(b *testing.B)   { benchHIndex(b, HIndexSort) }
func BenchmarkHIndexLinear(b *testing.B) { benchHIndex(b, HIndexLinear) }

func benchHIndex(b *testing.B, f func([]int32) int32) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int32, 256)
	for i := range vals {
		vals[i] = int32(rng.Intn(300))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(vals)
	}
}
