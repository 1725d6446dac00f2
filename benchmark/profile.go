package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A reader for the gzipped profile.proto that runtime/pprof writes, just
// deep enough to attribute CPU samples to layers: samples, locations,
// functions and the string table. It exists so the benchmark needs neither a
// module dependency nor the `go tool pprof` binary at run time.

// Field numbers of profile.proto used below.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

var errProto = errors.New("malformed profile")

// protoField is one decoded field of a message: a varint value or the bytes
// of a length-delimited one.
type protoField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// eachField calls f for every field of the message in b.
func eachField(b []byte, f func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		b = rest
		fl := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch fl.wire {
		case 0:
			if fl.val, b, err = readVarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil || n > uint64(len(rest)) {
				return errProto
			}
			fl.data, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := f(fl); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarints appends a repeated integer field's values, packed or not.
func repeatedVarints(dst []uint64, fl protoField) ([]uint64, error) {
	if fl.wire == 0 {
		return append(dst, fl.val), nil
	}
	b := fl.data
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// cpuSample is one profile sample: its stack as function names, leaf first,
// and its weight (the last value: CPU nanoseconds in a CPU profile).
type cpuSample struct {
	stack  []string
	weight int64
}

// parseProfile decodes a gzipped pprof profile into samples.
func parseProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(fl protoField) error {
		switch fl.num {
		case profSample:
			var s rawSample
			err := eachField(fl.data, func(sf protoField) (err error) {
				switch sf.num {
				case sampleLocationID:
					s.locs, err = repeatedVarints(s.locs, sf)
				case sampleValue:
					s.vals, err = repeatedVarints(s.vals, sf)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(fl.data, func(lf protoField) error {
				switch lf.num {
				case locationID:
					id = lf.val
				case locationLine:
					return eachField(lf.data, func(ln protoField) error {
						if ln.num == lineFunctionID {
							fns = append(fns, ln.val)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := eachField(fl.data, func(ff protoField) error {
				switch ff.num {
				case functionID:
					id = ff.val
				case functionName:
					name = ff.val
				}
				return nil
			})
			funcName[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(fl.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		cs := cpuSample{weight: int64(s.vals[len(s.vals)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// funcPackage returns the import path of a symbol name such as
// "pushmulticast/internal/noc.(*Router).Tick".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// Packages under internal/ that are not a layer of their own.
var layerAlias = map[string]string{
	"config":   "core", // validation and presets run from core.Build
	"profiles": "other",
}

// moduleLayer maps a package of this module to its layer, "" for any other
// package. The root package is the harness; the benchmark itself is "other".
func moduleLayer(pkg string) string {
	const mod = "pushmulticast"
	switch {
	case pkg == mod:
		return "harness"
	case pkg == "main" || strings.HasPrefix(pkg, mod+"/benchmark"):
		return "other"
	case strings.HasPrefix(pkg, mod+"/internal/"):
		name := strings.TrimPrefix(pkg, mod+"/internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		if alias, ok := layerAlias[name]; ok {
			return alias
		}
		return name
	case strings.HasPrefix(pkg, mod+"/"):
		return "other"
	}
	return ""
}

// isRuntime reports whether the package belongs to the Go runtime's share:
// scheduler, GC, maps, channels, atomics and their internal helpers.
func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		pkg == "sync" || strings.HasPrefix(pkg, "sync/") ||
		strings.HasPrefix(pkg, "internal/")
}

// sampleLayer attributes one sample. The leaf frame decides: a frame of this
// module goes to its layer and a runtime frame to goruntime. Any other
// standard-library leaf (JSON, HTTP, syscalls) is work done on behalf of its
// nearest caller in this module, so it goes to that caller's layer.
func sampleLayer(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	leaf := funcPackage(stack[0])
	if l := moduleLayer(leaf); l != "" {
		return l
	}
	if isRuntime(leaf) {
		return "goruntime"
	}
	for _, fn := range stack[1:] {
		if l := moduleLayer(funcPackage(fn)); l != "" {
			return l
		}
	}
	return "other"
}

// layerShares buckets samples by layer and returns each layer's share of the
// total weight. Every name in profileLayers is present; an unknown internal
// package counts as "other".
func layerShares(samples []cpuSample) map[string]float64 {
	shares := make(map[string]float64, len(profileLayers))
	for _, l := range profileLayers {
		shares[l] = 0
	}
	var total float64
	for _, s := range samples {
		l := sampleLayer(s.stack)
		if _, ok := shares[l]; !ok {
			l = "other"
		}
		shares[l] += float64(s.weight)
		total += float64(s.weight)
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares
}
