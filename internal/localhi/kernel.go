package localhi

import (
	"math"
	"math/bits"
	"sync/atomic"

	"nucleus/internal/nucleus"
)

// The sweep kernel evaluates the update operator U for one cell — H over
// { ρ(S) = min τ(co-members of S) : S ∋ c } — by scanning its row
// (nucleus.Rows: stored, or discovered into the worker's buffer). Given
// cur, the cell's current index, it returns min(cur, H) and the s-clique
// visits paid. Clamping is Theorem 1, not a heuristic: τ never rises, so
// the next index is at most cur whatever H is. A running support grows by
// the 0/1 of ρ ≥ cur; once cur s-cliques with ρ ≥ cur have been seen the
// answer is cur and the rest of the row is never read (the §4.4 early
// exit). Otherwise the answer is below cur, and a counting array of cur +
// 1 slots finds it: every s-clique is counted at cnt[min(ρ, cur)], so slot
// cur takes the ρ ≥ cur ones and slot 0 the ρ = 0 ones, which settle
// ignores. The per-visit work has no data-dependent jump: ρ, the clamp and
// the 0/1 come from the sign mask of a 64-bit difference (minInt32, tally,
// atLeast), because the builtin min lowers to a compare and a branch in
// these loops, and a branch on τ is a coin toss to the predictor. Co-arity
// 1 (k-core), 2 (truss) and 3 ((3,4)) each have a loop over fixed-size
// groups; any other co-arity runs the generic loop, written the same way.
// A cell at cur = 0 costs nothing, not even its row.
//
// The kernel has two loops, one per algorithm, because they see different
// cells. SND (sndSweep) evaluates every cell of every sweep, and about one
// evaluation in four falls: its rows only record ρ in the worker's rho
// buffer and count the support, and only a row that ends short of cur
// pays for the counting array. AND (update, rowTau) evaluates the cells a
// fall woke, and half or more of them fall, so counting as it reads costs
// less than a second pass; with notification at co-arity ≥ 2 it also
// records ρ, so that a fall to h wakes co-members only through the
// s-cliques whose ρ is above h (notify). One at or below h cannot pass the
// fall on: a member that reads it later sees it at ≤ h anyway, and one
// that read it before is reached by the fall that brought it to ≤ h (the
// argument in full is at mustWake). par reads τ atomically for concurrent
// asynchronous sweeps, masking the in-progress mark (evaluate); a stale
// higher read is repaired: the reading cell is marked, so the fall it
// missed wakes it again, and without notification every cell is evaluated
// again in the next sweep.
// Nothing allocates once a worker's row buffer has grown to the longest
// discovered row; the rho buffer is sized once per run, to the longest row.

// sweepScratch is one worker's state for a whole run.
type sweepScratch struct {
	// cnt is the counting array of the clamped h-index: slots 0..cur for
	// every cur up to the run's largest starting τ, which no cur ever
	// exceeds. Slot cur takes the s-cliques at ρ ≥ cur.
	cnt []int32
	// row is the worker's buffer for discovered rows.
	row []int32
	// rho, for SND and for AND with notification at co-arity ≥ 2,
	// receives the ρ of each s-clique of the row in flight, one slot per
	// s-clique of the longest row; nil otherwise.
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
		scs[i].cnt = make([]int32, top+1)
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

// settle finishes a cell whose row ended with atLeast < cur s-cliques at
// ρ ≥ cur, cur = len(cnt) − 1: the largest h < cur with h s-cliques at
// ρ ≥ h. Slots cur (the atLeast s-cliques) and 0 are not read.
func settle(cnt []int32, atLeast int32) int32 {
	for h := int32(len(cnt)) - 2; h >= 1; h-- {
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
	h, visits := rowTau(row, rows.Co, tau, sc.cnt[:cur+1], sc.rho, par)
	return h, visits, row
}

// minInt32 is min(a, b) without a jump: a − b, taken in 64 bits so that it
// cannot overflow, masked by its own sign.
func minInt32(a, b int32) int32 {
	d := int64(a) - int64(b)
	return b + int32(d&(d>>63))
}

// tally counts an s-clique of ρ = rho at cnt[min(rho, cur)] and returns 1
// if rho ≥ cur, else 0, without a jump: both come from the sign mask of
// rho − cur, taken in 64 bits.
func tally(cnt []int32, rho, cur int32) int32 {
	d := int64(rho) - int64(cur)
	s := d >> 63 // −1 if rho < cur, else 0
	cnt[int64(cur)+(d&s)]++
	return int32(s + 1)
}

// atLeast returns 1 if rho ≥ cur, else 0, without a jump: the sign of
// rho − cur, taken in 64 bits.
func atLeast(rho, cur int32) int32 {
	return int32((int64(rho)-int64(cur))>>63 + 1)
}

// rowTau is the kernel: min(cur, H) over one row, cur = len(cnt) − 1, and
// the visits paid; see the contract at the top of the file. At co-arity
// ≥ 2 a non-nil rhos receives the ρ of each s-clique visited, in row order.
func rowTau(row []int32, co int, tau, cnt, rhos []int32, par bool) (int32, int64) {
	cur := int32(len(cnt)) - 1
	clear(cnt)
	support := int32(0)
	var visits int64
	switch co {
	case 1:
		for i, d := range row {
			if support += tally(cnt, loadTau(par, tau, d), cur); support >= cur {
				return cur, int64(i) + 1
			}
		}
		return settle(cnt, support), int64(len(row))
	case 2:
		for ; len(row) >= 2; row = row[2:] {
			rho := minInt32(loadTau(par, tau, row[0]), loadTau(par, tau, row[1]))
			if rhos != nil {
				rhos[visits] = rho
			}
			visits++
			if support += tally(cnt, rho, cur); support >= cur {
				return cur, visits
			}
		}
	case 3:
		for ; len(row) >= 3; row = row[3:] {
			rho := minInt32(minInt32(loadTau(par, tau, row[0]), loadTau(par, tau, row[1])), loadTau(par, tau, row[2]))
			if rhos != nil {
				rhos[visits] = rho
			}
			visits++
			if support += tally(cnt, rho, cur); support >= cur {
				return cur, visits
			}
		}
	default:
		for ; len(row) >= co; row = row[co:] {
			rho := loadTau(par, tau, row[0])
			for _, d := range row[1:co] {
				rho = minInt32(rho, loadTau(par, tau, d))
			}
			if rhos != nil {
				rhos[visits] = rho
			}
			visits++
			if support += tally(cnt, rho, cur); support >= cur {
				return cur, visits
			}
		}
	}
	return settle(cnt, support), visits
}

// sndSweep is SND's sweep over the cells lo..hi−1 of the run, cells[i], or
// i itself when cells is nil: tau[c] = min(prev[c], H) with every ρ read
// from prev, and the updates and s-clique visits paid. Each row records
// its ρ in sc.rho while the support counts those ≥ cur, with rowTau's
// early exit, so the visits are rowTau's; only a row that ends short of
// cur, whose cell falls, tallies what it recorded (fall).
func sndSweep(rows *nucleus.Rows, cells []int32, lo, hi int, prev, tau []int32, sc *sweepScratch) (updates, visits int64) {
	co, rho := rows.Co, sc.rho
	for i := lo; i < hi; i++ {
		c := int32(i)
		if cells != nil {
			c = cells[i]
		}
		cur := prev[c]
		if cur <= 0 {
			tau[c] = 0
			continue
		}
		row := rows.Row(c, &sc.row)
		support, n := int32(0), 0
		switch co {
		case 1:
			for _, d := range row {
				r := prev[d]
				rho[n] = r
				n++
				if support += atLeast(r, cur); support >= cur {
					break
				}
			}
		case 2:
			for ; len(row) >= 2; row = row[2:] {
				r := minInt32(prev[row[0]], prev[row[1]])
				rho[n] = r
				n++
				if support += atLeast(r, cur); support >= cur {
					break
				}
			}
		case 3:
			for ; len(row) >= 3; row = row[3:] {
				r := minInt32(minInt32(prev[row[0]], prev[row[1]]), prev[row[2]])
				rho[n] = r
				n++
				if support += atLeast(r, cur); support >= cur {
					break
				}
			}
		default:
			for ; len(row) >= co; row = row[co:] {
				r := prev[row[0]]
				for _, d := range row[1:co] {
					r = minInt32(r, prev[d])
				}
				rho[n] = r
				n++
				if support += atLeast(r, cur); support >= cur {
					break
				}
			}
		}
		visits += int64(n)
		h := cur
		if support < cur { // then H < cur: the cell falls
			h = fall(sc.cnt[:cur+1], rho[:n], support)
			updates++
		}
		tau[c] = h
	}
	return updates, visits
}

// fall finishes an SND row that ended with support < cur s-cliques at
// ρ ≥ cur, cur = len(cnt) − 1, from the ρ it recorded: the counting pass
// rowTau makes as it reads, then settle.
func fall(cnt, rhos []int32, support int32) int32 {
	clear(cnt)
	cur := int32(len(cnt)) - 1
	for _, r := range rhos {
		cnt[minInt32(r, cur)]++
	}
	return settle(cnt, support)
}

// wakes is AND's active set: a bitmap over the positions of the run's
// order that the sweeps walk, a set bit meaning the cell will be evaluated,
// and pos[c], c's position. A cell outside a Subset has none (−1), so a
// wake never reaches it.
type wakes struct {
	pos  []int32
	bits []uint64
}

// newWakes returns the active set of a run over cells from tau: the cells
// above τ = 1, their bits set. One at τ ≤ 1 is final — a cell in an
// s-clique has κ ≥ 1 — so it never enters.
func newWakes(n int, cells, tau []int32) *wakes {
	w := &wakes{bits: make([]uint64, (len(cells)+63)/64), pos: make([]int32, n)}
	for c := range w.pos {
		w.pos[c] = -1
	}
	for p, c := range cells {
		w.pos[c] = int32(p)
		if tau[c] > 1 {
			w.bits[p>>6] |= 1 << (p & 63)
		}
	}
	return w
}

// mustWake reports whether a co-member d must be woken by a fall from old
// to h, given t, the τ(d) read once, in-progress mark and all (evaluate):
//   - unmarked, d wakes iff h < t ≤ old, one unsigned compare. With
//     t ≤ h, d still counts the fallen cell's s-cliques at ≥ τ(d). With
//     t > old they did not count for d at old either; had d read the cell
//     above old, the fall to old found d marked or its τ in that fall's
//     band, and woke it. One load suffices because d is marked before it
//     reads any co-member: an unmarked t is d's τ before an evaluation
//     that will read h, or after one that has ended.
//   - marked, d is being evaluated and may have read the old value, so it
//     wakes whenever its τ is above h, even above old.
//
// The fall of c reaches mustWake only through the s-cliques S of its row
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
func mustWake(t, h, old int32) bool {
	return uint32(t-h-1) < uint32(old-h) || t < 0 && t&math.MaxInt32 > h
}

// wakeUp sets the bit of d's position, unless it is set already or d has
// none.
func (w *wakes) wakeUp(d int32, par bool) {
	p := w.pos[d]
	if p < 0 {
		return
	}
	word, bit := &w.bits[p>>6], uint64(1)<<(p&63)
	if !par {
		*word |= bit
	} else if atomic.LoadUint64(word)&bit == 0 {
		atomic.OrUint64(word, bit)
	}
}

// notify wakes the co-members of a cell, read off its row, that its fall
// from old to h can affect, through the s-cliques whose ρ is above h
// (mustWake): at co-arity 1 ρ is the co-member's τ, read here; above it,
// rhos holds the ρ the kernel read for each s-clique of the row.
func notify(row, rhos []int32, co int, tau []int32, w *wakes, h, old int32, par bool) {
	if co == 1 {
		for _, d := range row {
			if mustWake(load(par, tau, d), h, old) {
				w.wakeUp(d, par)
			}
		}
		return
	}
	for i := 0; len(row) >= co; i, row = i+1, row[co:] {
		if rhos[i] <= h {
			continue
		}
		for _, d := range row[:co] {
			if mustWake(load(par, tau, d), h, old) {
				w.wakeUp(d, par)
			}
		}
	}
}

// andSweep is AND's sweep over the positions lo..hi−1 of the order cells,
// a chunk that starts on a word of the bitmap, tallied in sc: it evaluates
// the cells whose bit is set, in position order. A sequential sweep takes
// one bit at a time and reads the word again after each, so a wake ahead
// of the scan is taken in this sweep, one behind it in the next, as by a
// scan of the flags. A concurrent one takes a word with one atomic swap.
func andSweep(rows *nucleus.Rows, cells []int32, lo, hi int, tau []int32, w *wakes, sc *sweepScratch, notify notifier, par bool) {
	sc.skipped += int64(hi - lo)
	for k := lo >> 6; k<<6 < hi; k++ {
		word := &w.bits[k]
		if par {
			for set := atomic.SwapUint64(word, 0); set != 0; set &= set - 1 {
				evaluate(rows, cells[k<<6+bits.TrailingZeros64(set)], tau, w, sc, notify, true)
			}
			continue
		}
		for b := 0; b < 64; b++ {
			set := *word & (^uint64(0) << b)
			if set == 0 {
				break
			}
			b = bits.TrailingZeros64(set)
			*word &^= 1 << b
			evaluate(rows, cells[k<<6+b], tau, w, sc, notify, false)
		}
	}
}

// evaluate is AND's update of c; a fall wakes c's co-members unless notify
// is nil. A concurrent run with notification marks c in progress, in τ(c)'s
// sign bit, until the store of the result, so a co-member's fall in
// between wakes c (mustWake).
func evaluate(rows *nucleus.Rows, c int32, tau []int32, w *wakes, sc *sweepScratch, notify notifier, par bool) {
	// Only the worker that took c's bit writes tau[c], so one read serves as
	// both the kernel's clamp and the old value.
	old := load(par, tau, c)
	mark := par && notify != nil
	if mark {
		store(par, tau, c, old|math.MinInt32)
	}
	h, v, row := update(rows, c, tau, sc, old, par)
	sc.visits += v
	sc.skipped--
	if h < old {
		store(par, tau, c, h)
		sc.updates++
		if notify != nil {
			notify(row, sc.rho, rows.Co, tau, w, h, old, par)
		}
	} else if mark {
		store(par, tau, c, old)
	}
}
