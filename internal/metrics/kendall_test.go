package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestKendallPerfect(t *testing.T) {
	x := []int32{1, 2, 3, 4, 5}
	if got := KendallTauB(x, x); !almost(got, 1) {
		t.Fatalf("self correlation = %v", got)
	}
}

func TestKendallReversed(t *testing.T) {
	x := []int32{1, 2, 3, 4, 5}
	y := []int32{5, 4, 3, 2, 1}
	if got := KendallTauB(x, y); !almost(got, -1) {
		t.Fatalf("reversed correlation = %v", got)
	}
}

func TestKendallWithTiesKnown(t *testing.T) {
	// Hand-computed: x = {1,1,2}, y = {1,2,2}.
	// Pairs: (0,1): x tied; (0,2): concordant; (1,2): y tied.
	// nc=1 nd=0 tx=1 ty=1 → 1/sqrt(2*2) = 0.5.
	x := []int32{1, 1, 2}
	y := []int32{1, 2, 2}
	if got := KendallTauB(x, y); !almost(got, 0.5) {
		t.Fatalf("tau-b = %v, want 0.5", got)
	}
}

func TestKendallDegenerate(t *testing.T) {
	if got := KendallTauB([]int32{3, 3, 3}, []int32{3, 3, 3}); !almost(got, 1) {
		t.Fatalf("both constant: %v", got)
	}
	if got := KendallTauB([]int32{3, 3, 3}, []int32{1, 2, 3}); !almost(got, 0) {
		t.Fatalf("one constant: %v", got)
	}
	if got := KendallTauB([]int32{7}, []int32{9}); !almost(got, 1) {
		t.Fatalf("singleton: %v", got)
	}
	if got := KendallTauB(nil, nil); !almost(got, 1) {
		t.Fatalf("empty: %v", got)
	}
}

func TestKendallMatchesNaiveQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	err := quick.Check(func(raw []uint8, seed int64) bool {
		n := len(raw)
		if n < 2 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		x := make([]int32, n)
		y := make([]int32, n)
		for i := range raw {
			x[i] = int32(raw[i] % 8) // many ties
			y[i] = int32(rng.Intn(8))
		}
		return almost(KendallTauB(x, y), KendallTauBNaive(x, y))
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestKendallSymmetric(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}
	err := quick.Check(func(raw []uint8, seed int64) bool {
		n := len(raw)
		if n < 2 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		x := make([]int32, n)
		y := make([]int32, n)
		for i := range raw {
			x[i] = int32(raw[i] % 10)
			y[i] = int32(rng.Intn(10))
		}
		return almost(KendallTauB(x, y), KendallTauB(y, x))
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCountInversions(t *testing.T) {
	cases := []struct {
		in   []int32
		want int64
	}{
		{nil, 0},
		{[]int32{1}, 0},
		{[]int32{1, 2, 3}, 0},
		{[]int32{3, 2, 1}, 3},
		{[]int32{2, 1, 3, 1}, 3}, // (2,1),(2,1),(3,1)
		{[]int32{1, 1, 1}, 0},    // ties are not inversions
	}
	for _, c := range cases {
		in := append([]int32(nil), c.in...)
		if got := countInversions(in); got != c.want {
			t.Errorf("inversions(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestCountInversionsQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	err := quick.Check(func(raw []uint8) bool {
		a := make([]int32, len(raw))
		for i, r := range raw {
			a[i] = int32(r % 16)
		}
		var want int64
		for i := 0; i < len(a); i++ {
			for j := i + 1; j < len(a); j++ {
				if a[i] > a[j] {
					want++
				}
			}
		}
		cp := append([]int32(nil), a...)
		return countInversions(cp) == want
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestExactFraction(t *testing.T) {
	if got := ExactFraction([]int32{1, 2, 3, 4}, []int32{1, 2, 0, 4}); !almost(got, 0.75) {
		t.Fatalf("exact fraction = %v", got)
	}
	if got := ExactFraction(nil, nil); !almost(got, 1) {
		t.Fatalf("empty = %v", got)
	}
}

func TestMeanRelativeError(t *testing.T) {
	// |2-1|/1 + |4-4|/4 + |0-2|/2 = 1 + 0 + 1 = 2; mean = 2/3.
	got := MeanRelativeError([]int32{2, 4, 0}, []int32{1, 4, 2})
	if !almost(got, 2.0/3.0) {
		t.Fatalf("mre = %v", got)
	}
	// Division guards: exact = 0 uses denominator 1.
	if got := MeanRelativeError([]int32{3}, []int32{0}); !almost(got, 3) {
		t.Fatalf("mre with zero exact = %v", got)
	}
}
