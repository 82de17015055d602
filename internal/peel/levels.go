package peel

import "nucleus/internal/nucleus"

// LevelsResult describes the degree levels of Definition 7.
type LevelsResult struct {
	// Level[c] is the level index of cell c.
	Level []int32
	// Count is the number of levels ℓ; by Theorem 3 the local algorithms
	// converge within ℓ iterations (cells in level i converge within i).
	Count int
	// Sizes[i] is |L_i|.
	Sizes []int
}

// Levels computes the degree levels: L_0 is the set of cells of minimum
// s-degree; L_i is the set of cells of minimum s-degree once all earlier
// levels (and the s-cliques touching them) are removed. All cells of a
// level are removed simultaneously.
//
// It runs on Run's arrays: a level is the whole front bucket,
// vert[start:end]. Degrees are not clamped here (Definition 7 recomputes
// the minimum), so the bins a level empties are collapsed onto its end
// before its s-cliques are scanned and a survivor may sink through them.
// O(cells + incidences + the levels' minimum degrees).
func Levels(inst nucleus.Instance) *LevelsResult {
	deg := inst.Degrees()
	vert, pos, bin := sortByDegree(deg)
	n := int32(len(vert))
	res := &LevelsResult{Level: make([]int32, n)}
	rows := inst.Rows()
	co := rows.Co
	var buf []int32

	// An s-clique dies with its front-most member: one with a member before
	// the cell being scanned is either gone with an earlier level or
	// attributed to that member, so each survivor is decremented once.
	var end int32
	for start := int32(0); start < n; start = end {
		m := deg[vert[start]]
		end = bin[m+1]
		for d := range bin[:m+1] {
			bin[d] = end
		}
		for at := start; at < end; at++ {
			c := vert[at]
			res.Level[c] = int32(res.Count)
		scliques:
			for row := rows.Row(c, &buf); len(row) >= co; row = row[co:] {
				for _, d := range row[:co] {
					if pos[d] < at {
						continue scliques
					}
				}
				for _, d := range row[:co] {
					if pos[d] >= end {
						lower(deg, vert, pos, bin, d)
					}
				}
			}
		}
		res.Sizes = append(res.Sizes, int(end-start))
		res.Count++
	}
	return res
}
