package nucleustest

import (
	"slices"

	"nucleus/internal/nucleus"
)

// Groups returns the s-cliques of cell c as inst's rows list them: one
// fresh slice of co-member ids per s-clique, in row order.
func Groups(inst nucleus.Instance, c int32) [][]int32 {
	rows := inst.Rows()
	var buf []int32
	row := slices.Clone(rows.Row(c, &buf))
	var out [][]int32
	for ; len(row) >= rows.Co; row = row[rows.Co:] {
		out = append(out, row[:rows.Co:rows.Co])
	}
	return out
}

// Discovered wraps inst, which must have stored rows, so that its rows
// are handed out as discovered ones — copied into the caller's buffer one
// cell at a time — while they stay the very same rows in the same order:
// a run over the wrapper must match a run over inst visit for visit.
func Discovered(inst nucleus.Instance) nucleus.Instance {
	return discovered{inst}
}

type discovered struct{ nucleus.Instance }

func (d discovered) Rows() nucleus.Rows {
	rows := d.Instance.Rows()
	return nucleus.DiscoveredRows(rows.Co, func(c int32, buf []int32) []int32 {
		return append(buf, rows.Mem[rows.Offs[c]:rows.Offs[c+1]]...)
	})
}
