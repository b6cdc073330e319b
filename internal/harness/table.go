// Package harness implements the experiment harness of the reproduction: the
// workload generators, parameter sweeps and result tables for the
// experiments listed by All (E1-E11, E18 and A1). Each experiment validates
// one of the paper's quantitative claims (or provides baseline /
// substrate-validation context) and renders its results as a plain-text
// table so that `cmd/experiments` can regenerate the evaluation end to end.
// The serving stack is measured by fleetbench and the package benchmarks,
// not here.
package harness

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result: a titled grid of cells plus
// free-form notes (fitted exponents, verdicts, caveats).
type Table struct {
	// Title identifies the experiment (e.g. "E1: Classifier scaling").
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows hold the cell values, one slice per row.
	Rows [][]string
	// Notes are printed under the table.
	Notes []string
}

// NewTable creates an empty table with the given title and columns.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; the number of cells should match the column count.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a formatted note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
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
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteByte('\n')
	sb.WriteString(strings.Repeat("=", len(t.Title)))
	sb.WriteByte('\n')
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(widths) && len(cell) < widths[i] {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if total > 2 {
		sb.WriteString(strings.Repeat("-", total-2))
		sb.WriteByte('\n')
	}
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: ")
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TSV renders the table as tab-separated values (header row first), suitable
// for downstream plotting.
func (t *Table) TSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Columns, "\t"))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		sb.WriteString(strings.Join(row, "\t"))
		sb.WriteByte('\n')
	}
	return sb.String()
}
