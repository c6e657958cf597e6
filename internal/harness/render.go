package harness

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple fixed-width ASCII table matching the figures' row/bar
// structure.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	sep := make([]string, len(t.Columns))
	head := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		head[i] = pad(c, widths[i])
		sep[i] = strings.Repeat("-", widths[i])
	}
	fmt.Fprintln(w, strings.Join(head, "  "))
	fmt.Fprintln(w, strings.Join(sep, "  "))
	for _, row := range t.rows {
		cells := make([]string, len(row))
		for i, cell := range row {
			cells[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, strings.Join(cells, "  "))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// FmtX formats a speed-up multiple ("41.7x", "0" for non-convergence).
func FmtX(v float64) string {
	if v == 0 {
		return "0 (no conv.)"
	}
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", v)
}

// FmtRatio formats an estimation-quality ratio with its confidence
// interval.
func FmtRatio(mean, ci float64) string {
	switch {
	case math.IsNaN(mean):
		return "n/a"
	case mean >= 0.01:
		return fmt.Sprintf("%.3f +/- %.3f", mean, ci)
	default:
		return fmt.Sprintf("%.2e +/- %.1e", mean, ci)
	}
}

// FmtSecs formats a duration in engineering units.
func FmtSecs(s float64) string {
	switch {
	case math.IsNaN(s):
		return "n/a"
	case s >= 1:
		return fmt.Sprintf("%.3f s", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.3f ms", s*1e3)
	default:
		return fmt.Sprintf("%.1f us", s*1e6)
	}
}

// Series renders a downsampled numeric series ("loss vs iteration") as
// index/value pairs, nPoints evenly spaced.
func Series(w io.Writer, title string, xs []float64, nPoints int) {
	fmt.Fprintf(w, "\n-- %s --\n", title)
	if len(xs) == 0 {
		fmt.Fprintln(w, "(empty)")
		return
	}
	if nPoints <= 0 || nPoints > len(xs) {
		nPoints = len(xs)
	}
	step := float64(len(xs)-1) / float64(max(nPoints-1, 1))
	for p := 0; p < nPoints; p++ {
		i := int(math.Round(float64(p) * step))
		fmt.Fprintf(w, "  [%5d] %.6g\n", i, xs[i])
	}
}
