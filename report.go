package pushmulticast

import (
	"fmt"
	"slices"
	"strings"
	"text/tabwriter"
)

// Cell is one table entry: the text the report prints and, for a measured
// column, the unrounded number behind it (0 under a label column).
type Cell struct {
	Text  string
	Value float64
}

// Table is what every figure reduces to: a title, column headers, rows of
// cells and trailing notes. String renders it as aligned text; Value reads a
// number back by row labels and column header, so a test asserts on what was
// measured and never parses what was printed.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]Cell
	Notes   []string
}

func newTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// addRow appends a row of text-only cells.
func (t *Table) addRow(cells ...string) {
	row := make([]Cell, len(cells))
	for i, c := range cells {
		row[i].Text = c
	}
	t.Rows = append(t.Rows, row)
}

func (t *Table) addNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Value returns the number under the column headed col in the first row
// whose leading cells read labels, in order ("geomean", or "OrdPush",
// "cachebw"). A header or row the table does not have is an error naming it.
func (t *Table) Value(col string, labels ...string) (float64, error) {
	ci := slices.Index(t.Columns, col)
	if ci < 0 {
		return 0, fmt.Errorf("%s: no column %q in %q", t.Title, col, t.Columns)
	}
	for _, row := range t.Rows {
		if len(row) >= len(labels) && slices.EqualFunc(row[:len(labels)], labels,
			func(c Cell, label string) bool { return c.Text == label }) {
			return row[ci].Value, nil
		}
	}
	return 0, fmt.Errorf("%s: no row labelled %q", t.Title, labels)
}

func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", len(t.Title)))
	b.WriteString("\n")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Columns, "\t"))
	for _, r := range t.Rows {
		for i, c := range r {
			if i > 0 {
				fmt.Fprint(w, "\t")
			}
			fmt.Fprint(w, c.Text)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	for _, n := range t.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteString("\n")
	}
	return b.String()
}

// Cell formats: two, one and three decimals, a percentage, a whole count.
func f2(v float64) string    { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string    { return fmt.Sprintf("%.1f", v) }
func f3(v float64) string    { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string   { return fmt.Sprintf("%.1f%%", 100*v) }
func count(v float64) string { return fmt.Sprintf("%.0f", v) }
