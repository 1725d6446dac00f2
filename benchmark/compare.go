package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// quartiles returns the first quartile, median and third quartile as Python's
// statistics.quantiles(values, n=4) gives them.
func quartiles(v []float64) (q1, q2, q3 float64) {
	return quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)
}

// sampleSet holds, per workload and metric, one value per saved run.
type sampleSet map[string]map[string][]float64

func loadReports(path string) (sampleSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := sampleSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Workload == "" {
			return nil, fmt.Errorf("%s:%d: report names no workload (was it written with -out?)", path, line)
		}
		if set[r.Workload] == nil {
			set[r.Workload] = map[string][]float64{}
		}
		for _, metrics := range []map[string]metricValue{r.Metrics, r.Phases} {
			for name, v := range metrics {
				set[r.Workload][name] = append(set[r.Workload][name], v.Value)
			}
		}
	}
	return set, sc.Err()
}

// verdict judges B against A for one metric. Exact metrics must be
// identical. A metric with a bound is unresolved when either side's spread
// exceeds the bound, unless every B run reads better than every A run;
// otherwise it regressed when B's median is worse than A's by more than the
// bound. With sameCode the two sides are runs of one program, so a B that
// reads better by more than the bound disagrees as much as one that reads
// worse. A median that is not positive can be the base of no ratio and fails.
func verdict(m metric, a, b []float64, sameCode bool) string {
	a1, a2, a3 := quartiles(a)
	b1, b2, b3 := quartiles(b)
	if m.Kind == "exact" {
		if a2 == b2 && a1 == a3 && b1 == b3 {
			return "identical"
		}
		return "DIFFERS"
	}
	if m.Bound == 0 || (m.Moves != "" && a2 == 0 && b2 == 0) {
		return "" // a per-layer row without a bound, or one this workload does not exercise
	}
	if !(a2 > 0) || !(b2 > 0) {
		return "NO BASE"
	}
	worse := (b2 - a2) / a2
	if m.Better == "higher" {
		worse = -worse
	}
	if (a3-a1)/a2 > m.Bound || (b3-b1)/b2 > m.Bound {
		allBetter := slices.Max(b) < slices.Min(a)
		if m.Better == "higher" {
			allBetter = slices.Min(b) > slices.Max(a)
		}
		if !allBetter || sameCode {
			return "unresolved"
		}
	}
	switch {
	case worse > m.Bound:
		return "WORSE"
	case sameCode && -worse > m.Bound:
		return "APART"
	}
	return "ok"
}

// compareSets prints, per workload and metric, both sides' median and
// quartiles and the ratio B/A, and returns whether every verdict passed.
// Unresolved metrics do not fail the comparison; they are printed.
func compareSets(w io.Writer, a, b sampleSet, sameCode bool) bool {
	ok := true
	for _, wl := range workloadNames {
		if a[wl] == nil || b[wl] == nil {
			continue
		}
		fmt.Fprintf(w, "# %s\n%-34s %-8s %36s %36s %9s  %s\n", wl, "metric", "unit",
			"A median [q1, q3] n", "B median [q1, q3] n", "B/A", "verdict")
		for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
			av, bv := a[wl][m.Name], b[wl][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(av)
			b1, b2, b3 := quartiles(bv)
			v := verdict(m, av, bv, sameCode)
			if v == "WORSE" || v == "DIFFERS" || v == "APART" || v == "NO BASE" {
				ok = false
			}
			side := func(q1, q2, q3 float64, n int) string {
				return fmt.Sprintf("%.6g [%.6g, %.6g] %d", q2, q1, q3, n)
			}
			fmt.Fprintf(w, "%-34s %-8s %36s %36s %9.4f  %s\n", m.Name, m.Unit,
				side(a1, a2, a3, len(av)), side(b1, b2, b3, len(bv)), ratio(b2, a2), v)
		}
	}
	return ok
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := loadReports(pathA)
	if err != nil {
		return err
	}
	b, err := loadReports(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s, B = %s; B/A is B's median over A's\n", pathA, pathB)
	if !compareSets(w, a, b, false) {
		return fmt.Errorf("B is worse than A beyond a metric's bound, an exact metric differs, or a metric has no positive base")
	}
	return nil
}

// selfCheckRuns is how many times selfCheck runs the suite for each of its
// two sets. One run a side has no spread, and on a host where single runs of
// the same code differ by 15% a lone pair proves nothing either way; three a
// side, taken alternately so that slow drift of the host lands on both, give
// verdict a quartile distance to call a noisy metric unresolved by.
const selfCheckRuns = 3

// selfCheck holds the benchmark to its own bounds: two sets of untraced runs
// of the same code must agree, within each bound in both directions, and
// their exact metrics must be identical.
func selfCheck(o options, stdout io.Writer) (bool, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return false, err
	}
	o.traced = false
	var files [2]string
	for i := range files {
		files[i] = filepath.Join(o.outDir, fmt.Sprintf("selfcheck-%c.ndjson", 'A'+i))
		if err := os.Remove(files[i]); err != nil && !os.IsNotExist(err) {
			return false, err
		}
	}
	ok := true
	for i := 0; i < 2*selfCheckRuns; i++ {
		o.out = files[i%2]
		runOK, err := runEach(o, stdout)
		if err != nil {
			return false, err
		}
		ok = ok && runOK
	}
	a, err := loadReports(files[0])
	if err != nil {
		return false, err
	}
	b, err := loadReports(files[1])
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "A = the odd and B = the even of %d runs of the same code (%s, %s)\n", 2*selfCheckRuns, files[0], files[1])
	return compareSets(stdout, a, b, true) && ok, nil
}
