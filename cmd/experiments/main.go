// Command experiments regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	experiments                     # all figures, quick scale, 16 cores
//	experiments -fig 11,20          # a subset
//	experiments -fig 11 -cores 64   # the 64-core variants
//	experiments -scale full         # unscaled Table I machine (slow)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"pushmulticast"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figs  = fs.String("fig", "all", "comma-separated figure list: 2,3,4,11,12,13,14,15,16,17,18,19,20,t1,t2,collective,interplay,recent,future,faults,lossy or 'all' (all excludes the chaos campaigns 'faults' and 'lossy'; request them by name)")
		cores = fs.Int("cores", 16, "core count: 16, 64, or 256")
		scale = fs.String("scale", "quick", "input scale: tiny|quick|full")
		par   = fs.Int("par", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	sc, err := pushmulticast.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	o := pushmulticast.ExpOptions{Scale: sc, Cores: *cores, Parallelism: *par}

	var names []string
	for _, f := range pushmulticast.Figures() {
		names = append(names, f.Name)
	}
	want := map[string]bool{}
	for _, name := range strings.Split(*figs, ",") {
		switch name = strings.TrimSpace(name); {
		case name == "17": // the figure's two halves are separate registry entries
			want["17a"], want["17b"] = true, true
		case name == "all" || slices.Contains(names, name):
			want[name] = true
		case name != "":
			fmt.Fprintf(stderr, "experiments: unknown figure %q (figures: %s, or all)\n", name, strings.Join(names, ","))
			return 1
		}
	}
	ran := false
	for _, f := range pushmulticast.Figures() {
		// The chaos campaigns run with the invariant checker on every
		// simulation, which is deliberately slow; they only run when
		// requested by name.
		if !want[f.Name] && !(want["all"] && f.Name != "faults" && f.Name != "lossy") {
			continue
		}
		out, err := f.Run(context.Background(), o)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: fig %s: %v\n", f.Name, err)
			return 1
		}
		fmt.Fprintln(stdout, out.String())
		ran = true
	}
	if !ran {
		fmt.Fprintln(stderr, "experiments: nothing selected")
		return 1
	}
	return 0
}
