// Package experiments regenerates every experiment listed by All — the
// reproductions of the paper's Fig. 2/3 behaviours and the quantitative
// claims of §III-C. Each Ei function returns a Table; cmd/metaclass and the
// root bench suite print them.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's result, rendered like the paper would report it.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is a named experiment generator.
type Runner struct {
	ID  string
	Run func(seed int64) Table
}

// All returns every experiment in order.
func All() []Runner {
	return []Runner{
		{"E1", E1UnitCase},
		{"E2", E2PipelineBudget},
		{"E3", E3LatencySweep},
		{"E4", E4Scale},
		{"E5", E5Regional},
		{"E6", E6Render},
		{"E7", E7Video},
		{"E8", E8Sickness},
		{"E9", E9DeadReckoning},
		{"E10", E10Fusion},
		{"E11", E11Churn},
		{"E12", E12MegaEvent},
		{"E13", E13Soak},
		{"E14", E14Geo},
	}
}
