package pushmulticast

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"pushmulticast/internal/workload"
)

// Figure is one entry of the evaluation registry (see Figures). Nearly every
// figure of the paper is one shape — schemes x workloads x at most one swept
// knob, each cell normalised to a reference run — and is declared here as
// data: which runs, which cell is whose reference, which columns. Run turns
// all of a figure's cells into one concurrent fan-out through the campaign
// memo and reduces them to a Table. The few reports that are not that shape
// (Tables I/II, Fig 4's gap quantiles, Fig 14's link maps) obtain their runs
// the same way and set reduce to keep their own reducer.
type Figure struct {
	// Name is what cmd/experiments' -fig flag selects.
	Name string

	// title heads the table; a %d in it receives the core count.
	title string
	// schemes are the designs compared, in row or column order.
	schemes []Scheme
	// workloads resolves the workload set (see defaultWorkloads); nil is the
	// paper's non-PARSEC set unless the options name another.
	workloads func(ExpOptions) ([]Workload, error)
	// points is the swept knob; none means one unedited point.
	points []point
	// ref selects each cell's reference run: the Baseline at the same point
	// unless set.
	ref int
	// rows lists the dimensions the table's rows iterate, outermost first
	// (nil: schemes, then workloads); a dimension not listed stays at its
	// first value (first point, first scheme) unless a column pins another.
	rows []int
	cols []column
	// summary names the aggregate rows appended under the body ("geomean",
	// "max"), computed over the columns marked agg and blank under the rest.
	summary []string
	// note, when set, computes the first note from the finished table.
	note  func(*Table) (string, error)
	notes []string

	// reduce, when set, replaces the table reducer: it receives the figure's
	// runs by cell key (none when the figure declares no schemes).
	reduce func(ExpOptions, map[string]Results) (fmt.Stringer, error)
}

// Reference kinds (Figure.ref).
const (
	refBaseline  = iota // the Baseline at the same sweep point
	refPlain            // the Baseline with no point's edit applied
	refFirstStep        // the same scheme at the first sweep point
	refItself           // none: a run is its own reference
)

// Row dimensions (Figure.rows).
const (
	byPoint = iota
	byScheme
	byWorkload
)

// point is one value of a figure's swept knob.
type point struct {
	label string
	edit  func(*Config)
}

// plainPoint labels the un-edited Baseline runs of a refPlain figure.
const plainPoint = "unswept"

// cell locates one run of a figure.
type cell struct {
	point, scheme string
	wl            Workload
	cores         int
}

func (c cell) key() string { return c.point + "\x00" + c.scheme + "\x00" + c.wl.Name }

// column is one table column: a label read off the row's cell (text), or a
// number computed from a run and its reference (val) and printed by format.
// scheme and point pin the column to another scheme or sweep point than its
// row's — how a figure pivots a dimension into columns — and vs names the
// reference scheme where it is not the Baseline.
type column struct {
	head              string
	text              func(cell) string
	val               func(ref, r Results) (float64, error)
	format            func(float64) string
	agg               bool
	scheme, point, vs string
}

// of pins the column to a scheme and heads it head.
func (c column) of(s Scheme, head string) column {
	c.scheme, c.head = s.Name, head
	return c
}

// The label columns and the one value column most figures share.
var (
	workloadCol = column{head: "Workload", text: func(c cell) string { return c.wl.Name }}
	schemeCol   = column{head: "Scheme", text: func(c cell) string { return c.scheme }}
	speedupCol  = column{head: "Speedup x", val: speedup, format: f2, agg: true}
)

// pointCol labels a row with its sweep point.
func pointCol(head string) column {
	return column{head: head, text: func(c cell) string { return c.point }}
}

// defaultWorkloads is the usual workload rule: def unless the options name a
// set.
func defaultWorkloads(def func() []Workload) func(ExpOptions) ([]Workload, error) {
	return func(o ExpOptions) ([]Workload, error) { return o.pickWorkloads(def()) }
}

// Figures returns the evaluation registry in report order: the paper's
// tables and figures, then this repository's extensions and chaos campaigns.
func Figures() []Figure {
	return []Figure{
		tableI, tableII, fig2, fig3, fig4, fig11, fig12, fig13, fig14, fig15, fig16,
		fig17a, fig17b, fig18, fig19, fig20,
		figCollective, figInterplay, figRecent, figFuture,
		figFaults, figLossy,
	}
}

// RunFigure runs the named registry entry and returns its table. ctx stops
// the campaign: queued runs drain unrun and in-flight simulations are
// abandoned (aborted outright unless another campaign still waits on them),
// surfacing as a wrapped ErrCanceled.
func RunFigure(ctx context.Context, name string, o ExpOptions) (*Table, error) {
	for _, f := range Figures() {
		if f.Name != name {
			continue
		}
		out, err := f.Run(ctx, o)
		if err != nil {
			return nil, err
		}
		t, ok := out.(*Table)
		if !ok {
			return nil, fmt.Errorf("figure %s renders as %T, not a table", name, out)
		}
		return t, nil
	}
	return nil, fmt.Errorf("unknown figure %q", name)
}

// Run produces the figure's report.
func (f Figure) Run(ctx context.Context, o ExpOptions) (fmt.Stringer, error) {
	o = o.withDefaults()
	grid, wls, err := f.runs(ctx, o)
	if err != nil {
		return nil, err
	}
	if f.reduce != nil {
		return f.reduce(o, grid)
	}
	return f.table(o.Cores, wls, grid)
}

// steps is the figure's sweep, one unedited point when it has none.
func (f Figure) steps() []point {
	if len(f.points) == 0 {
		return []point{{}}
	}
	return f.points
}

// runs executes every (point, scheme, workload) cell of the figure, and the
// reference runs its ref kind adds, in one fan-out over the options' worker
// budget. It returns the results by cell key with the workload set they ran.
func (f Figure) runs(ctx context.Context, o ExpOptions) (map[string]Results, []Workload, error) {
	if len(f.schemes) == 0 {
		return nil, nil, nil
	}
	if f.workloads == nil {
		f.workloads = defaultWorkloads(workload.NonParsec)
	}
	wls, err := f.workloads(o)
	if err != nil {
		return nil, nil, err
	}
	base, err := o.baseConfig()
	if err != nil {
		return nil, nil, err
	}
	var (
		cells []cell
		runs  []ResolvedRun
	)
	add := func(pt point, s Scheme) {
		cfg := base.WithScheme(s)
		if pt.edit != nil {
			pt.edit(&cfg)
		}
		for _, wl := range wls {
			cells = append(cells, cell{point: pt.label, scheme: s.Name, wl: wl})
			runs = append(runs, NewRun(cfg, wl, o.Scale, nil))
		}
	}
	schemes := f.schemes
	if f.ref == refPlain {
		add(point{label: plainPoint}, Baseline())
	} else if f.ref == refBaseline && schemes[0].Name != Baseline().Name {
		schemes = append([]Scheme{Baseline()}, schemes...)
	}
	for _, pt := range f.steps() {
		for _, s := range schemes {
			add(pt, s)
		}
	}
	out, err := executeAll(ctx, o.Parallelism, runs, func(i int) string {
		return strings.TrimLeft(cells[i].point+" "+cells[i].scheme+"/"+cells[i].wl.Name, " ")
	})
	if err != nil {
		return nil, nil, err
	}
	grid := make(map[string]Results, len(runs))
	for i, c := range cells {
		grid[c.key()] = out[i]
	}
	return grid, wls, nil
}

// value computes column c for the row at k: the run at k, moved to the
// column's pinned scheme or point, against its reference run under the
// figure's ref kind.
func (f Figure) value(c column, k cell, grid map[string]Results) (Cell, error) {
	k.scheme, k.point = cmp.Or(c.scheme, k.scheme), cmp.Or(c.point, k.point)
	ref := k
	switch f.ref {
	case refBaseline, refPlain:
		ref.scheme = cmp.Or(c.vs, Baseline().Name)
		if f.ref == refPlain {
			ref.point = plainPoint
		}
	case refFirstStep:
		ref.point = f.steps()[0].label
	}
	v, err := c.val(grid[ref.key()], grid[k.key()])
	return Cell{Text: c.format(v), Value: v}, err
}

// summaries are the aggregate rows a figure can append (Figure.summary).
var summaries = map[string]func([]float64) (float64, error){
	"geomean": geomean,
	"max":     func(vals []float64) (float64, error) { return slices.Max(vals), nil },
}

// table reduces the grid to the figure's table: one row per combination of
// the row dimensions, one cell per column, then the summary rows and notes.
func (f Figure) table(cores int, wls []Workload, grid map[string]Results) (*Table, error) {
	t := &Table{Title: f.title, Notes: slices.Clone(f.notes)}
	if strings.Contains(f.title, "%d") {
		t.Title = fmt.Sprintf(f.title, cores)
	}
	for _, c := range f.cols {
		t.Columns = append(t.Columns, c.head)
	}
	if f.rows == nil {
		f.rows = []int{byScheme, byWorkload}
	}
	var err error
	var walk func(dims []int, k cell)
	walk = func(dims []int, k cell) {
		switch {
		case len(dims) == 0:
			row := make([]Cell, len(f.cols))
			for i, c := range f.cols {
				if c.text != nil {
					row[i].Text = c.text(k)
				} else if err == nil {
					row[i], err = f.value(c, k, grid)
				}
			}
			t.Rows = append(t.Rows, row)
		case dims[0] == byPoint:
			for _, pt := range f.steps() {
				k.point = pt.label
				walk(dims[1:], k)
			}
		case dims[0] == byScheme:
			for _, s := range f.schemes {
				k.scheme = s.Name
				walk(dims[1:], k)
			}
		case dims[0] == byWorkload:
			for _, wl := range wls {
				k.wl = wl
				walk(dims[1:], k)
			}
		}
	}
	walk(f.rows, cell{point: f.steps()[0].label, scheme: f.schemes[0].Name, cores: cores})
	if err != nil {
		return nil, err
	}
	body := t.Rows
	for _, name := range f.summary {
		row := make([]Cell, len(f.cols))
		row[0].Text = name
		for i, c := range f.cols {
			if !c.agg {
				continue
			}
			vals := make([]float64, len(body))
			for j := range body {
				vals[j] = body[j][i].Value
			}
			v, err := summaries[name](vals)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.head, err)
			}
			row[i] = Cell{Text: c.format(v), Value: v}
		}
		t.Rows = append(t.Rows, row)
	}
	if f.note != nil {
		n, err := f.note(t)
		if err != nil {
			return nil, err
		}
		t.Notes = append([]string{n}, t.Notes...)
	}
	return t, nil
}
