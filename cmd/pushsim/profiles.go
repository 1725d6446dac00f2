package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// startProfiles arms the profilers behind -cpuprofile / -memprofile /
// -exectrace: a CPU profile and a runtime execution trace begin immediately;
// an allocation profile is snapshotted by the stop function (after a forced
// GC, so live objects are settled). Every file is created here, so an
// uncreatable path fails before the run. Empty paths skip the corresponding
// profiler. The returned stop function flushes and closes everything,
// reports what failed to write, and is safe to call more than once.
func startProfiles(cpuFile, memFile, traceFile string) (func() error, error) {
	var stops []func() error
	stop := func() error {
		var errs []error
		for i := len(stops) - 1; i >= 0; i-- {
			errs = append(errs, stops[i]())
		}
		stops = nil
		return errors.Join(errs...)
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
		stops = append(stops, func() error { pprof.StopCPUProfile(); return f.Close() })
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
		stops = append(stops, func() error { trace.Stop(); return f.Close() })
	}
	if memFile != "" {
		f, err := os.Create(memFile)
		if err != nil {
			stop()
			return nil, err
		}
		stops = append(stops, func() error {
			runtime.GC()
			err := pprof.Lookup("allocs").WriteTo(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			return nil
		})
	}
	return stop, nil
}
