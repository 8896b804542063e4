// Package experiments holds one registered scenario per figure of the
// paper's evaluation section (Figures 1-19, Table I, and the analytic
// Claims 3 and 4), plus the multi-hop, routed-reverse, scale-out, fault
// and churn families. Each scenario expands into runner jobs that sweep
// the figure's parameter and a fold that assembles Tables whose rows
// are the series the paper plots. The cmd/ebrc binary prints these
// tables as TSV.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a named result grid: one column per plotted quantity, one row
// per parameter point.
type Table struct {
	// Name identifies the experiment (e.g. "fig3-pftk").
	Name string
	// Note carries a one-line description of what the rows show.
	Note string
	// Columns are the column headers.
	Columns []string
	// Rows hold the values; each row must match len(Columns).
	Rows [][]float64
}

// AddRow appends a row, validating its width.
func (t *Table) AddRow(vals ...float64) {
	if len(vals) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row width %d != %d columns in %s",
			len(vals), len(t.Columns), t.Name))
	}
	t.Rows = append(t.Rows, vals)
}

// WriteTSV renders the table as tab-separated values with a header.
func (t *Table) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s", t.Name); err != nil {
		return err
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, ": %s", t.Note); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, "\t")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = fmt.Sprintf("%.6g", v)
		}
		if _, err := fmt.Fprintln(w, strings.Join(parts, "\t")); err != nil {
			return err
		}
	}
	return nil
}
