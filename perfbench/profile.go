package main

// CPU-profile attribution without the pprof tool: runtime/pprof writes a
// gzipped profile.proto message, decoded here with a minimal protobuf
// reader. Each sample is charged to the innermost stack frame whose
// function lives in one of the repository's packages, mapped to its layer.
// A sample with no such frame is charged to the benchmark itself when a
// frame of this command is on its stack (the load generator, request
// building, body checks, digests), and to "runtime" otherwise (the garbage
// collector, the scheduler).

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layerNames are the repository's modules as the benchmark groups them,
// then the benchmark's own code.
var layerNames = []string{"compile", "interp", "sim", "workload", "exp", "serve", "runtime", benchLayer}

// benchLayer is the CPU of this command's own code, which is not the
// program's.
const benchLayer = "bench"

// packageLayer maps each repository package to its layer.
var packageLayer = map[string]string{
	"regconn":                   "compile", // Build and the facade
	"regconn/internal/opt":      "compile",
	"regconn/internal/ilp":      "compile",
	"regconn/internal/ir":       "compile",
	"regconn/internal/analysis": "compile",
	"regconn/internal/abi":      "compile",
	"regconn/internal/regalloc": "compile",
	"regconn/internal/codegen":  "compile",
	"regconn/internal/sched":    "compile",
	"regconn/internal/mapcheck": "compile",
	"regconn/internal/backend":  "compile",
	"regconn/internal/asm":      "compile",
	"regconn/internal/interp":   "interp",
	"regconn/internal/mem":      "interp",
	"regconn/internal/machine":  "sim",
	"regconn/internal/core":     "sim",
	"regconn/internal/isa":      "sim",
	"regconn/internal/prof":     "sim",
	"regconn/internal/workload": "workload",
	"regconn/internal/bench":    "workload",
	"regconn/internal/exp":      "exp",
	"regconn/internal/flight":   "exp",
	"regconn/internal/cli":      "exp",
	"regconn/internal/serve":    "serve",
	"regconn/internal/store":    "serve",
	"regconn/internal/obs":      "serve",
}

// funcPackage returns the import path of a symbol name such as
// "regconn/internal/machine.(*Machine).Run": everything before the first
// dot that follows the last slash.
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuByLayer decodes a CPU profile and returns host CPU seconds per layer.
func cpuByLayer(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(layerNames))
	for _, l := range layerNames {
		out[l] = 0
	}
	for _, s := range p.samples {
		layer := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] { // innermost first
				pkg := funcPackage(fn)
				if l, ok := packageLayer[pkg]; ok {
					layer = l
					break frames
				}
				if pkg == "main" {
					layer = benchLayer
				}
			}
		}
		out[layer] += float64(s.nanos) / 1e9
	}
	return out, nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id → function names, innermost first
}

type sample struct {
	locs  []uint64 // leaf first
	nanos int64
}

var errProto = errors.New("malformed CPU profile")

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	var (
		strs      []string
		rawSample [][]byte
		locLines  = map[uint64][]uint64{} // location → function ids
		funcName  = map[uint64]int64{}    // function id → string index
		valueIdx  = -1                    // index of the cpu/nanoseconds value
		types     [][]byte
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			types = append(types, b)
		case 2:
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for i, t := range types {
		var typ, unit int64
		if err := fields(t, func(num, wire int, v uint64, _ []byte) error {
			switch num {
			case 1:
				typ = int64(v)
			case 2:
				unit = int64(v)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if str(typ) == "cpu" && str(unit) == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, fmt.Errorf("%w: no cpu/nanoseconds sample type", errProto)
	}
	p := &profile{locFuncs: make(map[uint64][]string, len(locLines))}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcName[f])
		}
		p.locFuncs[id] = names
	}
	for _, b := range rawSample {
		var s sample
		var vals []int64
		if err := fields(b, func(num, wire int, v uint64, b []byte) error {
			switch num {
			case 1:
				return repeated(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
			case 2:
				return repeated(wire, v, b, func(x uint64) { vals = append(vals, int64(x)) })
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if valueIdx < len(vals) {
			s.nanos = vals[valueIdx]
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// repeated feeds a repeated varint field, packed (wire type 2) or not.
func repeated(wire int, v uint64, b []byte, f func(uint64)) error {
	if wire == 0 {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		f(x)
		b = b[n:]
	}
	return nil
}

// fields walks one protobuf message, calling f with each field's number,
// wire type, and either its varint value or its length-delimited bytes.
func fields(msg []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		tag, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(tag>>3), int(tag&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
