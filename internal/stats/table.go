package stats

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table used by the experiment
// harness to render paper-style result tables (`faultexp experiment`).
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Notes   []string
	maxCols int
}

// NewTable returns an empty table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header, maxCols: len(header)}
}

// AddRow appends a row; cells beyond the header width extend the table.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > t.maxCols {
		t.maxCols = len(cells)
	}
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a free-text footnote rendered below the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, t.maxCols)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i := 0; i < t.maxCols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		writeRow(t.Header)
		total := 0
		for _, w := range widths {
			total += w
		}
		b.WriteString(strings.Repeat("-", total+2*(t.maxCols-1)))
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
