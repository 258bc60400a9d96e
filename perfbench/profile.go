package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// The layers CPU self time is split into, named after the repository's
// packages; internal/network is split by file. topo covers topo, mesh and
// routing; cmp covers cmp and parsec. other is everything else: flit,
// stats, obs, the standard library reached from outside the simulator,
// and this benchmark.
var layers = []string{
	"router", "link", "ni", "core", "pg", "power",
	"network.step", "network.sched", "network.par",
	"topo", "traffic", "cmp", "runtime", "other",
}

const modulePrefix = "powerpunch/internal/"

// layerOf maps one sampled call stack, leaf first, to the layer that
// spent the time. A leaf in the Go runtime (allocation, GC, scheduling,
// map and copy helpers) is runtime's. Otherwise the innermost frame in a
// simulator package names the layer, so standard-library calls such as
// math/rand count toward the layer that made them.
func layerOf(frames []frame) string {
	if len(frames) > 0 && isRuntime(frames[0].fn) {
		return "runtime"
	}
	for _, f := range frames {
		if !strings.HasPrefix(f.fn, modulePrefix) {
			continue
		}
		pkg := f.fn[len(modulePrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "router", "link", "ni", "core", "pg", "power", "traffic", "cmp", "topo":
			return pkg
		case "mesh", "routing":
			return "topo"
		case "parsec":
			return "cmp"
		case "network":
			switch path.Base(f.file) {
			case "sched.go":
				return "network.sched"
			case "par.go":
				return "network.par"
			default:
				return "network.step"
			}
		default:
			return "other"
		}
	}
	return "other"
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/")
}

type frame struct{ fn, file string }

// layerShares decodes a gzipped CPU profile as runtime/pprof writes it
// and returns each layer's share of the sampled CPU time, with the total
// number of samples.
func layerShares(gz []byte) (map[string]float64, int64, error) {
	stacks, weights, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	share := make(map[string]float64, len(layers))
	for _, l := range layers {
		share[l] = 0
	}
	var total int64
	for i, st := range stacks {
		share[layerOf(st)] += float64(weights[i])
		total += weights[i]
	}
	if total > 0 {
		for l := range share {
			share[l] /= float64(total)
		}
	}
	return share, total, nil
}

// decodeProfile returns every sample's call stack, leaf first, with
// inlined frames expanded, and its sample count. It reads only the
// fields of profile.proto it needs.
func decodeProfile(gz []byte) ([][]frame, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, values []uint64 }
	type function struct{ name, file int64 }
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]function{}
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			return eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			}, func() { samples = append(samples, s) })
		case 4: // Location
			var id uint64
			var fns []uint64
			return eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					}, nil)
				}
				return nil
			}, func() { locs[id] = fns })
		case 5: // Function
			var id uint64
			var f function
			return eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			}, func() { funcs[id] = f })
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	}, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	stacks := make([][]frame, len(samples))
	counts := make([]int64, len(samples))
	for i, s := range samples {
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				f := funcs[fid]
				stacks[i] = append(stacks[i], frame{fn: str(f.name), file: str(f.file)})
			}
		}
		if len(s.values) > 0 { // the first value is the sample count
			counts[i] = int64(s.values[0])
		}
	}
	return stacks, counts, nil
}

// eachField calls fn for every field of the protobuf message b: v holds
// a varint's value, b a length-delimited field's bytes. done, if non-nil,
// runs after the last field.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error, done func()) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unknown wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	if done != nil {
		done()
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b holds the
// values) or not (v is the single value).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
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
