package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// startProfiles arms the profilers behind -cpuprofile / -memprofile /
// -exectrace: a CPU profile and a runtime execution trace begin immediately;
// an allocation profile is snapshotted by the stop function (after a forced
// GC, so live objects are settled). Empty paths skip the corresponding
// profiler. The returned stop function flushes and closes everything and is
// safe to call more than once.
func startProfiles(cpuFile, memFile, traceFile string) (func(), error) {
	var stops []func()
	stop := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		stops = nil
	}
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			stop()
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			stop()
			return nil, err
		}
		stops = append(stops, func() { trace.Stop(); f.Close() })
	}
	if memFile != "" {
		stops = append(stops, func() {
			f, err := os.Create(memFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		})
	}
	return stop, nil
}
