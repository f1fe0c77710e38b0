package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"strings"
)

// This file attributes CPU profile samples to the simulator's layers. It
// decodes the gzip-compressed profile.proto that runtime/pprof writes with a
// minimal protobuf reader, so the benchmark needs nothing beyond the
// standard library.

// cpuBuckets are the cpu.* buckets, in report order.
var cpuBuckets = []string{
	"mapcache", "gecko", "bitmap", "ftl", "queue", "checkpoint", "flash", "stats", "geckoftl",
	"sched", "runtime_gc", "bench", "other",
}

// layerOf maps a simulator package to its bucket.
var layerOf = map[string]string{
	"geckoftl":                     "geckoftl",
	"geckoftl/internal/mapcache":   "mapcache",
	"geckoftl/internal/gecko":      "gecko",
	"geckoftl/internal/metastore":  "gecko",
	"geckoftl/internal/bitmap":     "bitmap",
	"geckoftl/internal/ftl":        "ftl",
	"geckoftl/internal/pvb":        "ftl",
	"geckoftl/internal/pvl":        "ftl",
	"geckoftl/internal/queue":      "queue",
	"geckoftl/internal/checkpoint": "checkpoint",
	"geckoftl/internal/flash":      "flash",
	"geckoftl/internal/stats":      "stats",
}

// Runtime frames that make a sample garbage-collection or scheduler work,
// wherever they sit in the stack.
var (
	gcPrefixes = []string{
		"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
		"runtime.greyobject", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep", "runtime.wbBufFlush",
	}
	schedFuncs = map[string]bool{
		"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true, "runtime.gopark": true,
		"runtime.goready": true, "runtime.ready": true, "runtime.newproc": true, "runtime.newproc1": true,
		"runtime.mcall": true, "runtime.goschedImpl": true, "runtime.wakep": true, "runtime.startm": true,
		"runtime.stopm": true, "runtime.notewakeup": true, "runtime.notesleep": true, "runtime.futexsleep": true,
		"runtime.futexwakeup": true, "runtime.runqsteal": true, "runtime.runqgrab": true, "runtime.execute": true,
		"runtime.goexit0": true, "runtime.gfget": true, "runtime.gfput": true, "runtime.handoffp": true,
		"runtime.resetspinning": true, "runtime.usleep": true, "runtime.osyield": true, "runtime.mPark": true,
		"runtime.semasleep": true, "runtime.semawakeup": true, "runtime.wakeNetPoller": true,
	}
)

// pkgOf returns the package path of a fully qualified function name, such
// as geckoftl/internal/mapcache for geckoftl/internal/mapcache.(*Cache).Get.
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// bucketOf attributes one sample's stack, innermost frame first.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime_gc"
			}
		}
	}
	for _, fn := range stack {
		if schedFuncs[fn] {
			return "sched"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "geckoftl") {
			if l, ok := layerOf[pkgOf(fn)]; ok {
				return l
			}
			return "other"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	return "other"
}

// cpuShares reads the CPU profile at path and returns, for the samples whose
// pprof labels carry the given workload and phase, each bucket's share of
// them and their number.
func cpuShares(path, workload, phase string) (map[string]float64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if p.label(s, "workload") != workload || p.label(s, "phase") != phase || len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				stack = append(stack, p.str(p.functions[fn]))
			}
		}
		counts[bucketOf(stack)] += s.values[0]
		total += s.values[0]
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		}
	}
	return shares, total, nil
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	samples []sample
	// locations maps a location id to its function ids, innermost
	// (inlined) first; functions maps a function id to its name's string
	// index.
	locations map[uint64][]uint64
	functions map[uint64]int64
	strings   []string
}

type sample struct {
	locations []uint64
	values    []int64
	labels    [][2]int64 // string indexes of key and value
}

func (p *profile) label(s sample, key string) string {
	for _, l := range s.labels {
		if p.str(l[0]) == key {
			return p.str(l[1])
		}
	}
	return ""
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

var errProto = errors.New("malformed CPU profile")

// field is one decoded protobuf field: a varint value or a length-delimited
// payload.
type field struct {
	num   uint64
	value uint64
	data  []byte
}

// fields decodes a protobuf message into its fields.
func fields(b []byte) ([]field, error) {
	var out []field
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		b = b[n:]
		f := field{num: key >> 3}
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errProto
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			b = b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// varints reads a repeated integer field, packed or not.
func varints(f field) ([]uint64, error) {
	if f.data == nil {
		return []uint64{f.value}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	for _, f := range top {
		switch f.num {
		case 2: // Sample
			s, err := decodeSample(f.data)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			id, fns, err := decodeLocation(f.data)
			if err != nil {
				return nil, err
			}
			p.locations[id] = fns
		case 5: // Function
			fs, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = int64(g.value)
				}
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.data))
		}
	}
	return p, nil
}

func decodeSample(b []byte) (sample, error) {
	var s sample
	fs, err := fields(b)
	if err != nil {
		return s, err
	}
	for _, f := range fs {
		switch f.num {
		case 1:
			v, err := varints(f)
			if err != nil {
				return s, err
			}
			s.locations = append(s.locations, v...)
		case 2:
			v, err := varints(f)
			if err != nil {
				return s, err
			}
			for _, x := range v {
				s.values = append(s.values, int64(x))
			}
		case 3:
			ls, err := fields(f.data)
			if err != nil {
				return s, err
			}
			var kv [2]int64
			for _, l := range ls {
				if l.num == 1 || l.num == 2 {
					kv[l.num-1] = int64(l.value)
				}
			}
			s.labels = append(s.labels, kv)
		}
	}
	return s, nil
}

func decodeLocation(b []byte) (uint64, []uint64, error) {
	fs, err := fields(b)
	if err != nil {
		return 0, nil, err
	}
	var id uint64
	var fns []uint64
	for _, f := range fs {
		switch f.num {
		case 1:
			id = f.value
		case 4: // Line
			ls, err := fields(f.data)
			if err != nil {
				return 0, nil, err
			}
			for _, l := range ls {
				if l.num == 1 {
					fns = append(fns, l.value)
				}
			}
		}
	}
	return id, fns, nil
}
