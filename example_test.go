package pushmulticast_test

import (
	"context"
	"fmt"
	"log"

	"pushmulticast"
)

// The canonical flow: configure a machine, pick a scheme, run a workload.
func ExampleRun() {
	cfg := pushmulticast.ScaledConfig(pushmulticast.Default16()).
		WithScheme(pushmulticast.OrdPush())
	res, err := pushmulticast.Run(cfg, "cachebw", pushmulticast.ScaleTiny)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s under %s: %d cycles, %d flits\n",
		res.Workload, res.Scheme, res.Cycles, res.TotalNoCFlits())
}

// Comparing two schemes on the same workload.
func ExampleRunWorkload() {
	wl := pushmulticast.Workload{
		Name: "pingpong",
		Build: func(core, cores int, _ pushmulticast.Scale) pushmulticast.Stream {
			i := 0
			return pushmulticast.StreamFunc(func() pushmulticast.Op {
				if i >= 100 {
					return pushmulticast.Op{Kind: pushmulticast.OpEnd}
				}
				i++
				return pushmulticast.Op{Kind: pushmulticast.OpLoad,
					Addr: pushmulticast.SharedBase + uint64(i%8)*pushmulticast.LineBytes}
			})
		},
	}
	cfg := pushmulticast.ScaledConfig(pushmulticast.Default16()).
		WithScheme(pushmulticast.Baseline())
	if _, err := pushmulticast.RunWorkload(cfg, wl, pushmulticast.ScaleTiny); err != nil {
		log.Fatal(err)
	}
	fmt.Println("custom workloads plug into the same Run machinery")
	// Output: custom workloads plug into the same Run machinery
}

// Regenerating one of the paper's figures programmatically.
func ExampleRunFigure() {
	f, err := pushmulticast.RunFigure(context.Background(), "11", pushmulticast.ExpOptions{
		Scale:     pushmulticast.ScaleTiny,
		Workloads: []string{"cachebw"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schemes compared: %d\n", len(f.Columns)-3)
	// Output: schemes compared: 4
}
