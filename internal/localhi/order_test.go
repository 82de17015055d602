package localhi

import (
	"strings"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// TestOrderMustBePermutation: Options.Order is checked before any sweep
// runs. A partial order used to be swept as given — on this triangle with a
// two-edge tail, Order {0} left cells 1..4 at their degrees and the run
// reported Converged with κ = [2 2 3 2 1] where peeling says [2 2 2 1 1] —
// and a duplicate gave one τ slot two concurrent writers. Anything but a
// permutation of [0, NumCells) now panics with a localhi: message, like a
// wrong-length InitialTau; a full peeling order still converges in one
// iteration (Theorem 4).
func TestOrderMustBePermutation(t *testing.T) {
	g := graph.Build(5, [][2]uint32{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}})
	inst := nucleus.NewCore(g)
	pr := peel.Run(inst)
	if want := []int32{2, 2, 2, 1, 1}; !equalInt32(pr.Kappa, want) {
		t.Fatalf("peel κ = %v, want %v", pr.Kappa, want)
	}
	for _, tc := range []struct {
		name  string
		order []int32
		panic string // substring of the panic message; "" means the run is valid
	}{
		{"short", []int32{0}, "it lists 1 cells"},
		{"empty", []int32{}, "it lists 0 cells"},
		{"long", []int32{0, 1, 2, 3, 4, 0}, "cell 0 is out of range or listed twice"},
		{"duplicate", []int32{0, 1, 2, 3, 3}, "cell 3 is out of range or listed twice"},
		{"out of range", []int32{0, 1, 2, 3, 5}, "cell 5 is out of range or listed twice"},
		{"negative", []int32{0, 1, 2, 3, -1}, "cell -1 is out of range or listed twice"},
		{"peel order", pr.Order, ""},
		{"reverse id order", []int32{4, 3, 2, 1, 0}, ""},
	} {
		for algName, run := range map[string]func(nucleus.Instance, Options) *Result{"snd": Snd, "and": And} {
			for _, threads := range []int{1, 4} {
				var res *Result
				msg := func() (msg string) {
					defer func() {
						if r := recover(); r != nil {
							msg, _ = r.(string)
						}
					}()
					res = run(inst, Options{Order: tc.order, Threads: threads})
					return ""
				}()
				if tc.panic != "" {
					if !strings.HasPrefix(msg, "localhi: ") || !strings.Contains(msg, tc.panic) {
						t.Errorf("%s %s threads=%d: panic %q, want a localhi: message containing %q (result %+v)",
							tc.name, algName, threads, msg, tc.panic, res)
					}
					continue
				}
				if msg != "" || !res.Converged || !equalInt32(res.Tau, pr.Kappa) {
					t.Errorf("%s %s threads=%d: panic %q, result %+v; want κ %v", tc.name, algName, threads, msg, res, pr.Kappa)
				}
			}
		}
	}
	if it := And(inst, Options{Order: pr.Order}).Iterations; it != 1 {
		t.Errorf("peeling order took %d iterations, want 1 (Theorem 4)", it)
	}
}
