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

// cpuLayers are the buckets a CPU-profile sample's leaf frame is charged to,
// keyed by Go package path. Everything not listed is "other".
var cpuLayers = []struct{ layer, pkg string }{
	{"machine", "capri/internal/machine"},
	{"proxy", "capri/internal/proxy"},
	{"cache", "capri/internal/cache"},
	{"mem", "capri/internal/mem"},
	{"audit", "capri/internal/audit"},
	{"compile", "capri/internal/compile"},
	{"analysis", "capri/internal/analysis"},
}

// cpuLayerNames lists the cpu.* buckets in report order.
var cpuLayerNames = []string{"machine", "proxy", "cache", "mem", "audit", "compile", "analysis", "runtime", "other"}

// funcPackage returns the package path of a Go symbol name such as
// "capri/internal/machine.(*Machine).service".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOf maps a function name to its cpu.* bucket.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	for _, l := range cpuLayers {
		if pkg == l.pkg {
			return l.layer
		}
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// cpuSplit is a CPU profile reduced to sample counts.
type cpuSplit struct {
	samples  int64
	periodNS int64
	leaf     map[string]int64 // cpu.* bucket of the leaf frame -> samples
	incl     map[string]int64 // bucket -> samples with any frame in it
}

func (c *cpuSplit) add(d cpuSplit) {
	c.samples += d.samples
	c.periodNS = d.periodNS
	for k, v := range d.leaf {
		c.leaf[k] += v
	}
	for k, v := range d.incl {
		c.incl[k] += v
	}
}

// share returns the fraction of samples whose leaf frame is in the bucket.
func (c cpuSplit) share(layer string) float64 {
	if c.samples == 0 {
		return 0
	}
	return float64(c.leaf[layer]) / float64(c.samples)
}

// parseCPUProfile decodes a gzipped runtime/pprof CPU profile (profile.proto)
// and attributes each sample to the package of its leaf frame — the
// innermost, possibly inlined, function. Only the fields needed for that are
// decoded.
func parseCPUProfile(raw []byte) (cpuSplit, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return cpuSplit{}, fmt.Errorf("profile: %w", err)
	}
	pb, err := io.ReadAll(zr)
	if err != nil {
		return cpuSplit{}, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]int64{}    // function id -> string index
		strs     []string
		period   int64
	)
	err = pbFields(pb, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []int64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					for _, u := range pbUints(nil, v, b) {
						vals = append(vals, int64(u))
					}
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = vals[0]
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		case 12:
			period = int64(v)
		}
		return nil
	})
	if err != nil {
		return cpuSplit{}, err
	}
	name := func(fn uint64) string {
		if i := funcName[fn]; i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := cpuSplit{periodNS: period, leaf: map[string]int64{}, incl: map[string]int64{}}
	for _, s := range samples {
		out.samples += s.count
		leaf := "other"
		seen := map[string]bool{}
		for i, loc := range s.locs {
			for j, fn := range locFuncs[loc] {
				l := layerOf(name(fn))
				if i == 0 && j == 0 {
					leaf = l
				}
				if !seen[l] {
					seen[l] = true
					out.incl[l] += s.count
				}
			}
		}
		out.leaf[leaf] += s.count
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// pbFields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(field, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated varint field's values, packed (b non-nil) or not.
func pbUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
