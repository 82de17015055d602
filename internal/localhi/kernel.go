package localhi

import (
	"math"

	"nucleus/internal/nucleus"
)

// The sweep kernel evaluates the update operator U for one cell — H over
// { ρ(S) = min τ(co-members of S) : S ∋ c } — by scanning its row
// (nucleus.Rows: stored, or discovered into the worker's buffer). Given
// cur, the cell's current index, it returns min(cur, H) and the s-clique
// visits paid. Clamping is Theorem 1, not a heuristic: τ never rises, so
// the next index is at most cur whatever H is. Knowing that bound first
// makes the evaluation one pass: a ρ ≥ cur only needs counting (support),
// a smaller one lands in a counting array of cur slots, and once cur
// s-cliques with ρ ≥ cur have been seen the answer is cur and the rest of
// the row is never read (the §4.4 early exit). AND with notification at
// co-arity ≥ 2 also writes each s-clique's ρ into the worker's rho buffer,
// so that a fall to h wakes co-members only through the s-cliques whose ρ
// is above h (notify). One at or below h cannot pass the fall on: a member
// that reads it later sees it at ≤ h anyway, and one that read it before
// is reached by the fall that brought it to ≤ h (the argument in full is
// at wake). A cell at cur = 0 costs nothing, not even its row. par reads τ
// atomically for concurrent asynchronous sweeps (a stale higher read is
// repaired: the reading cell is in progress, so the fall it missed wakes it
// again, and without notification every cell is evaluated again in the
// next sweep).
// At co-arity 1 (k-core) ρ is one τ read, and nothing is recorded.
// Nothing allocates once a worker's row buffer has grown to the longest
// discovered row; the rho buffer is sized once per run, to the longest row.

// sweepScratch is one worker's state for a whole run.
type sweepScratch struct {
	// cnt is the counting array of the clamped h-index: one slot per index
	// below the run's largest starting τ, which no cur ever exceeds.
	cnt []int32
	// row is the worker's buffer for discovered rows.
	row []int32
	// rho, for AND with notification at co-arity ≥ 2, receives the ρ of
	// each s-clique of the row in flight, one slot per s-clique of the
	// longest row; nil otherwise.
	rho []int32

	// Tallies of the sweep in flight, added to by the owning worker once per
	// chunk, summed and cleared after the join: no shared counter in a sweep.
	updates, visits, skipped int64

	// Scratches of a run sit in one slice; the pad keeps one worker's hot
	// fields off the cache line of the next worker's.
	_ [64]byte
}

// newScratches returns one scratch per worker for a run that starts at tau,
// each with a rho buffer of longest slots when longest > 0.
func newScratches(workers int, tau []int32, longest int32) []sweepScratch {
	top := maxOf(tau)
	scs := make([]sweepScratch, workers)
	for i := range scs {
		scs[i].cnt = make([]int32, top)
		if longest > 0 {
			scs[i].rho = make([]int32, longest)
		}
	}
	return scs
}

// maxOf returns the largest of a, 0 if it is empty or all negative.
func maxOf(a []int32) int32 {
	var top int32
	for _, v := range a {
		top = max(top, v)
	}
	return top
}

// settle finishes a cell whose row ended with atLeast < cur = len(cnt)
// s-cliques at ρ ≥ cur: the largest h < cur with h s-cliques at ρ ≥ h.
func settle(cnt []int32, atLeast int32) int32 {
	for h := int32(len(cnt)) - 1; h >= 1; h-- {
		if atLeast += cnt[h]; atLeast >= h {
			return h
		}
	}
	return 0
}

// update evaluates the update operator for cell c against tau, cur being
// c's current index: min(cur, H), the s-clique visits paid, and c's row for
// the wake-ups of a fall — nil at cur = 0, which costs nothing.
func update(rows *nucleus.Rows, c int32, tau []int32, sc *sweepScratch, cur int32, par bool) (int32, int64, []int32) {
	if cur <= 0 {
		return 0, 0, nil
	}
	row := rows.Row(c, &sc.row)
	h, visits := rowTau(row, rows.Co, tau, sc.cnt[:cur], sc.rho, par)
	return h, visits, row
}

// rowTau is the kernel: min(cur, H) over one row, cur = len(cnt), and the
// visits paid; see the contract at the top of the file. At co-arity ≥ 2 a
// non-nil rhos receives the ρ of each s-clique visited, in row order.
func rowTau(row []int32, co int, tau, cnt, rhos []int32, par bool) (int32, int64) {
	cur := int32(len(cnt))
	clear(cnt)
	support := int32(0)
	if co == 1 {
		for i, d := range row {
			rho := load(par, tau, d)
			if rho >= cur {
				if support++; support >= cur {
					return cur, int64(i) + 1
				}
			} else if rho > 0 {
				cnt[rho]++
			}
		}
		return settle(cnt, support), int64(len(row))
	}
	var visits int64
	for ; len(row) >= co; row = row[co:] {
		rho := int32(math.MaxInt32)
		for _, d := range row[:co] {
			if v := load(par, tau, d); v < rho {
				rho = v
			}
		}
		if rhos != nil {
			rhos[visits] = rho
		}
		visits++
		if rho >= cur {
			if support++; support >= cur {
				return cur, visits
			}
		} else if rho > 0 {
			cnt[rho]++
		}
	}
	return settle(cnt, support), visits
}

// The states of And's per-cell active flag. A sequential run uses only the
// first two; a concurrent one marks the cell it claimed in progress until
// its τ is stored, so a co-member's fall in between is never lost.
const (
	flagIdle       int32 = iota // nothing changed since the cell's last update
	flagActive                  // a co-member fell: evaluate it when a sweep next reaches it
	flagInProgress              // claimed: a worker is evaluating it now
)

// wake sets d's flag if a co-member's fall from old to h can matter to d,
// given t, the τ(d) the caller read and found above h. That lower test is
// the row loop's, so the common τ(d) ≤ h costs one load; it is race-free
// because τ only falls: with τ(d) ≤ h, d still counts the co-member's
// s-cliques at ≥ τ(d), whatever d's state. The upper test τ(d) ≤ old (with
// τ(d) > old, d never counted them) holds only for an idle d, whose last
// update has finished:
//   - active: d will be evaluated anyway; nothing is written.
//   - in progress: d may have read the old value and its τ may still fall,
//     so it is woken on the lower test alone.
//   - idle: woken if t ≤ old. A t above old may be a read from before d's
//     last update finished, so τ(d) is read again, after the flag, and d is
//     woken only if h < τ(d) ≤ old.
//
// The fall of c reaches wake only through the s-cliques S of its row
// whose ρ — the least τ of S's other members, as c's kernel read it — is
// above h (notify); skipping the rest is safe at every thread count.
// Suppose c read some co-member o of S at τ(o) ≤ h. If another member d
// reads o after that, it sees S at ≤ τ(o) ≤ h, and c's fall from old to h
// leaves that minimum unchanged. If d read o earlier, o's own fall to
// τ(o) is responsible for S: it was stored before c read o, and o either
// processed S — ran this test on d — or skipped it by the same rule, on a
// member read at ≤ τ(o) after a strictly earlier store. So the chain ends
// at a fall that processed S, or at one that d already saw.
//
// For any (r,s) this wakes every cell that can still fall, so a sweep that
// updates nothing is the fixpoint.
func wake(tau, active []int32, d, t, h, old int32, par bool) {
	switch load(par, active, d) {
	case flagActive:
		return
	case flagIdle:
		if t > old {
			if t = load(par, tau, d); t <= h || t > old {
				return
			}
		}
	}
	store(par, active, d, flagActive)
}

// notify wakes the co-members of a cell, read off its row, that its fall
// from old to h can affect, through the s-cliques whose ρ is above h
// (wake): at co-arity 1 ρ is the co-member's τ, read here; above it, rhos
// holds the ρ the kernel read for each s-clique of the row.
func notify(row, rhos []int32, co int, tau, active []int32, h, old int32, par bool) {
	if co == 1 {
		for _, d := range row {
			if t := load(par, tau, d); t > h {
				wake(tau, active, d, t, h, old, par)
			}
		}
		return
	}
	for i := 0; len(row) >= co; i, row = i+1, row[co:] {
		if rhos[i] <= h {
			continue
		}
		for _, d := range row[:co] {
			if t := load(par, tau, d); t > h {
				wake(tau, active, d, t, h, old, par)
			}
		}
	}
}
