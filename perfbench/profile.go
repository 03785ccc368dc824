package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator's packages that host time is attributed to, plus
// "runtime" (samples with no frame in the module) and "other" (module
// packages outside this list: addr, stats, wspec, pkg/c3d).
var layers = []string{
	"cache", "sim", "coherence", "core", "machine", "tlb", "numa", "dramcache",
	"dram", "interconnect", "cpu", "workload", "trace", "sample", "experiments",
	"sweep", "mc", "runtime", "other",
}

// modulePrefix is the import-path prefix of the program under test. The
// benchmark's own module (c3d/perfbench) and its main package are excluded.
const modulePrefix = "c3d/"

// layerOf maps a fully qualified function name, as a profile records it, to
// its layer, or "" when the function is not in the program under test.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) || strings.HasPrefix(fn, "c3d/perfbench") {
		return ""
	}
	// Module import paths contain no dots, so the first dot ends the path
	// (generic instantiations may contain further slashes in brackets).
	pkg := fn
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		pkg = fn[:i]
	}
	pkg = strings.TrimPrefix(pkg, modulePrefix)
	pkg = strings.TrimPrefix(pkg, "internal/")
	if i := strings.IndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range layers {
		if l == pkg && l != "runtime" && l != "other" {
			return l
		}
	}
	return "other"
}

// foldStack attributes one sample to the innermost frame of the program
// under test, so a runtime map lookup called from numa counts as numa.
// Frames are innermost first. Stacks with no such frame (GC, scheduler)
// count as runtime.
func foldStack(frames []string) string {
	for _, fn := range frames {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// sample is one profile sample: its stack (innermost first) and CPU time.
type sample struct {
	frames []string
	nanos  int64
}

// foldProfile sums CPU seconds per layer over the samples.
func foldProfile(samples []sample) map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range samples {
		out[foldStack(s.frames)] += float64(s.nanos) / 1e9
	}
	return out
}

// parseCPUProfile decodes the gzipped pprof protobuf that runtime/pprof
// writes into samples with symbolised stacks. Only the fields the fold
// needs are read: samples, locations with their (inlined) lines, functions
// and the string table.
func parseCPUProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					for _, u := range appendUints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		// CPU profiles carry [samples, cpu nanoseconds].
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var frames []string
		for _, loc := range s.locs {
			for _, f := range locFuncs[loc] {
				idx := funcNames[f]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, fmt.Errorf("profile: function name index %d out of range", idx)
				}
				frames = append(frames, strs[idx])
			}
		}
		out = append(out, sample{frames: frames, nanos: s.values[1]})
	}
	return out, nil
}

// appendUints appends a repeated uint64 field that may be packed (b holds
// the varints) or not (v is the value).
func appendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field number
// and either its varint value (b nil) or its length-delimited bytes.
// Fixed-width fields are skipped; runtime/pprof writes none that are read.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: truncated field")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
