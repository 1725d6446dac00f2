package pushmulticast

import "fmt"

// tableI renders the system configuration (the paper's Table I) for the
// given options; tableII the workload inventory (the paper's Table II
// analogue). Neither simulates anything.
var (
	tableI  = Figure{Name: "t1", reduce: systemTable}
	tableII = Figure{Name: "t2", reduce: workloadTable}
)

func systemTable(o ExpOptions, _ map[string]Results) (fmt.Stringer, error) {
	cfg, err := o.baseConfig()
	if err != nil {
		return nil, err
	}
	t := newTable("Table I: system configuration",
		"Parameter", "Configuration")
	t.addRow("System", fmt.Sprintf("%dx%d tiles", cfg.MeshW, cfg.MeshH))
	t.addRow("Core", fmt.Sprintf("%d-wide retire, %d-deep load window, %d-entry store buffer",
		cfg.CoreWidth, cfg.CoreWindow, cfg.StoreBuffer))
	t.addRow("L1D", fmt.Sprintf("%dKB %d-way, %d-cycle", cfg.L1Size>>10, cfg.L1Ways, cfg.L1Latency))
	t.addRow("L2 (private)", fmt.Sprintf("%dKB %d-way, %d-cycle, %d MSHRs",
		cfg.L2Size>>10, cfg.L2Ways, cfg.L2Latency, cfg.L2MSHRs))
	t.addRow("LLC slice (shared)", fmt.Sprintf("%dKB %d-way, %d-cycle",
		cfg.LLCSliceSize>>10, cfg.LLCWays, cfg.LLCLatency))
	t.addRow("Coherence", "MSI directory, PushAck/OrdPush extensions")
	t.addRow("Prefetchers", fmt.Sprintf("L1 Bingo (%dB regions, %d PHT), L2 Stride (%d streams x %d)",
		cfg.BingoRegionBytes, cfg.BingoPHTEntries, cfg.StrideStreams, cfg.StrideDegree))
	t.addRow("DRAM", fmt.Sprintf("%d-cycle latency, 1 line / %d cycles / controller, 4 corner controllers",
		cfg.MemLatency, cfg.MemCyclesPerLine))
	t.addRow("NoC", fmt.Sprintf("%dx%d mesh, 2-stage routers, %d VCs/vnet x 3 vnets, %d-bit links, 1/%d-flit ctrl/data packets",
		cfg.MeshW, cfg.MeshH, cfg.NoC.VCsPerVNet, cfg.NoC.LinkWidthBits, cfg.NoC.DataPacketSize()))
	t.addRow("Routing", "XY requests / YX responses, virtual cut-through")
	t.addRow("Dynamic knob", fmt.Sprintf("TPC threshold %d, time window %d, ratio 1/%d",
		cfg.TPCThreshold, cfg.TimeWindow, 1<<cfg.KnobRatioShift))
	if o.Scale != ScaleFull {
		t.addNote("caches scaled for %s-scale inputs; use ScaleFull for Table I capacities", o.Scale)
	}
	return t, nil
}

func workloadTable(ExpOptions, map[string]Results) (fmt.Stringer, error) {
	t := newTable("Table II: workloads", "Workload", "Class", "Description")
	for _, w := range Workloads() {
		t.addRow(w.Name, w.Class, w.Description)
	}
	t.addNote("synthetic access-stream reproductions of the paper's benchmarks (DESIGN.md §1)")
	return t, nil
}
