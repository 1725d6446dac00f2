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
	"flag"
	"fmt"
	"os"
	"strings"

	"pushmulticast"
)

func main() {
	var (
		figs  = flag.String("fig", "all", "comma-separated figure list: 2,3,4,11,12,13,14,15,16,17,18,19,20,t1,t2,collective,interplay,recent,future,faults,lossy or 'all' (all excludes the chaos campaigns 'faults' and 'lossy'; request them by name)")
		cores = flag.Int("cores", 16, "core count: 16, 64, or 256")
		scale = flag.String("scale", "quick", "input scale: tiny|quick|full")
		par   = flag.Int("par", 0, "max concurrent simulations (0 = NumCPU)")
	)
	flag.Parse()

	sc, err := pushmulticast.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	o := pushmulticast.ExpOptions{Scale: sc, Cores: *cores, Parallelism: *par}

	want := map[string]bool{}
	all := *figs == "all"
	for _, f := range strings.Split(*figs, ",") {
		want[strings.TrimSpace(f)] = true
	}
	// The chaos campaign runs with the invariant checker on every simulation,
	// which is deliberately slow; it only runs when requested by name.
	sel := func(name string) bool { return (all && name != "faults" && name != "lossy") || want[name] }

	type exp struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	experiments := []exp{
		{"t1", func() (fmt.Stringer, error) { s, err := pushmulticast.TableI(o); return str(s), err }},
		{"t2", func() (fmt.Stringer, error) { return str(pushmulticast.TableII()), nil }},
		{"2", func() (fmt.Stringer, error) { return pushmulticast.Fig2(o) }},
		{"3", func() (fmt.Stringer, error) { return pushmulticast.Fig3(o) }},
		{"4", func() (fmt.Stringer, error) { return pushmulticast.Fig4(o) }},
		{"11", func() (fmt.Stringer, error) { return pushmulticast.Fig11(o) }},
		{"12", func() (fmt.Stringer, error) { return pushmulticast.Fig12(o) }},
		{"13", func() (fmt.Stringer, error) { return pushmulticast.Fig13(o) }},
		{"14", func() (fmt.Stringer, error) { return pushmulticast.Fig14(o) }},
		{"15", func() (fmt.Stringer, error) { return pushmulticast.Fig15(o) }},
		{"16", func() (fmt.Stringer, error) { return pushmulticast.Fig16(o) }},
		{"17", func() (fmt.Stringer, error) { return both(pushmulticast.Fig17a(o))(pushmulticast.Fig17b(o)) }},
		{"18", func() (fmt.Stringer, error) { return pushmulticast.Fig18(o) }},
		{"19", func() (fmt.Stringer, error) { return pushmulticast.Fig19(o) }},
		{"20", func() (fmt.Stringer, error) { return pushmulticast.Fig20(o) }},
		{"collective", func() (fmt.Stringer, error) { return pushmulticast.ExpCollective(o) }},
		{"interplay", func() (fmt.Stringer, error) { return pushmulticast.ExtInterplay(o) }},
		{"recent", func() (fmt.Stringer, error) { return pushmulticast.ExtRecentPushTable(o) }},
		{"future", func() (fmt.Stringer, error) { return pushmulticast.ExtFutureDirections(o) }},
		{"faults", func() (fmt.Stringer, error) { return pushmulticast.ExpFaults(o) }},
		{"lossy", func() (fmt.Stringer, error) { return pushmulticast.ExpLossy(o) }},
	}
	ran := 0
	for _, e := range experiments {
		if !sel(e.name) {
			continue
		}
		out, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: fig %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(out.String())
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "experiments: nothing selected")
		os.Exit(1)
	}
}

// str adapts a plain string to fmt.Stringer.
type str string

func (s str) String() string { return string(s) }

// both concatenates two experiment results, propagating the first error.
func both(a fmt.Stringer, errA error) func(fmt.Stringer, error) (fmt.Stringer, error) {
	return func(b fmt.Stringer, errB error) (fmt.Stringer, error) {
		if errA != nil {
			return nil, errA
		}
		if errB != nil {
			return nil, errB
		}
		return str(a.String() + "\n" + b.String()), nil
	}
}
