// Custom workload: build your own access-stream generator against the
// public API and evaluate it under Push Multicast. The workload here is a
// read-mostly key-value lookup service: every core scans a shared index
// (read-shared, re-referenced) and then touches private session state.
//
//	go run ./examples/customworkload
package main

import (
	"fmt"
	"log"

	"pushmulticast"
)

// kvStream generates one core's ops: alternating shared-index lookups and
// private session updates.
type kvStream struct {
	core     int
	i        int
	total    int
	idxLines uint64
}

func (s *kvStream) next() pushmulticast.Op {
	if s.i >= s.total {
		return pushmulticast.Op{Kind: pushmulticast.OpEnd}
	}
	s.i++
	// Deterministic per-core probe sequence over the shared index.
	h := uint64(s.i)*2654435761 + uint64(s.core)
	switch s.i % 4 {
	case 0:
		return pushmulticast.Op{Kind: pushmulticast.OpWork, N: 12}
	case 1: // shared index probe
		line := (h * 7) % s.idxLines
		return pushmulticast.Op{Kind: pushmulticast.OpLoad, Addr: pushmulticast.SharedBase + line*pushmulticast.LineBytes}
	case 2: // sequential shared scan leg (range query)
		line := uint64(s.i) % s.idxLines
		return pushmulticast.Op{Kind: pushmulticast.OpLoad, Addr: pushmulticast.SharedBase + line*pushmulticast.LineBytes}
	default: // private session write
		line := h % 64
		return pushmulticast.Op{Kind: pushmulticast.OpStore,
			Addr: pushmulticast.PrivateBase(s.core) + line*pushmulticast.LineBytes}
	}
}

func main() {
	wl := pushmulticast.Workload{
		Name:        "kvservice",
		Description: "read-mostly KV lookups over a shared index",
		Class:       "custom",
		Build: func(core, cores int, _ pushmulticast.Scale) pushmulticast.Stream {
			s := &kvStream{core: core, total: 4000, idxLines: 512}
			return pushmulticast.StreamFunc(s.next)
		},
	}

	for _, sch := range []pushmulticast.Scheme{pushmulticast.Baseline(), pushmulticast.OrdPush()} {
		cfg := pushmulticast.ScaledConfig(pushmulticast.Default16()).WithScheme(sch)
		res, err := pushmulticast.RunWorkload(cfg, wl, pushmulticast.ScaleTiny)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s cycles %8d  flits %8d  L2 MPKI %6.1f  pushes %d\n",
			sch.Name, res.Cycles, res.TotalNoCFlits(), res.L2MPKI(),
			res.Stats.Cache.PushesTriggered)
	}
}
