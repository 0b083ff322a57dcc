package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the subset of the pprof protobuf format (profile.proto)
// that runtime/pprof CPU profiles use, and attributes each sample to a
// layer. Only the standard library is available, so the decoder reads the
// wire format directly.

// cpuProfile is a decoded profile: each sample as a leaf-first list of
// function names (inlined frames expanded, innermost first) and its value.
type cpuProfile struct {
	stacks [][]string
	values []int64
}

// pbField is one decoded protobuf field: varints carry num, length-
// delimited fields carry data.
type pbField struct {
	tag  int
	num  uint64
	data []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := pbField{tag: int(key >> 3)}
		switch key & 7 {
		case 0: // varint
			v, n := uvarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			f.num, b = v, b[n:]
		case 1: // 64-bit
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length")
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // 32-bit
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// uvarint decodes a base-128 varint, returning the byte count (0 when the
// input is truncated or overlong).
func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedUints reads a repeated integer field, packed or not.
func repeatedUints(f pbField) ([]uint64, error) {
	if f.data == nil {
		return []uint64{f.num}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseProfile decodes a gzip-compressed (or raw) pprof CPU profile.
func parseProfile(raw []byte) (*cpuProfile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		sampleTys [][2]uint64 // (type, unit) string indexes
		samples   []pbField
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName  = map[uint64]uint64{}   // function id -> name string index
	)
	for _, f := range top {
		switch f.tag {
		case 1: // sample_type
			vt, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var ty [2]uint64
			for _, g := range vt {
				if g.tag == 1 || g.tag == 2 {
					ty[g.tag-1] = g.num
				}
			}
			sampleTys = append(sampleTys, ty)
		case 2:
			samples = append(samples, f)
		case 4: // location
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range fs {
				switch g.tag {
				case 1:
					id = g.num
				case 4: // line
					ls, err := pbFields(g.data)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.tag == 1 {
							fns = append(fns, l.num)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range fs {
				switch g.tag {
				case 1:
					id = g.num
				case 2:
					name = g.num
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	// Weight samples by CPU time when the profile carries it, else by count.
	valIdx := 0
	for i, ty := range sampleTys {
		if str(ty[0]) == "cpu" {
			valIdx = i
		}
	}
	p := &cpuProfile{}
	for _, s := range samples {
		fs, err := pbFields(s.data)
		if err != nil {
			return nil, err
		}
		var locs, vals []uint64
		for _, g := range fs {
			var xs []uint64
			if g.tag == 1 || g.tag == 2 {
				if xs, err = repeatedUints(g); err != nil {
					return nil, err
				}
			}
			switch g.tag {
			case 1:
				locs = append(locs, xs...)
			case 2:
				vals = append(vals, xs...)
			}
		}
		if valIdx >= len(vals) {
			continue
		}
		var stack []string
		for _, l := range locs {
			for _, fn := range locFuncs[l] {
				stack = append(stack, str(funcName[fn]))
			}
		}
		p.stacks = append(p.stacks, stack)
		p.values = append(p.values, int64(vals[valIdx]))
	}
	return p, nil
}

// gcFrames are the runtime entry points under which the collector works
// on its own goroutines: background marking, sweeping and scavenging, and
// explicit collections.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain",
	"runtime.markroot", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.GC",
}

// layerOf attributes one leaf-first stack to the package of its innermost
// revive/internal/<pkg> frame. A stack without one goes to "gc" when the
// collector is on it (background marking, sweeping, scavenging) and to
// "other" otherwise (scheduler, syscalls, net/http, the benchmark). Mark
// assists stay with the package whose allocation triggered them.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "revive/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "gc"
			}
		}
	}
	return "other"
}

// attribute sums sample values per layer.
func (p *cpuProfile) attribute(into map[string]int64) {
	for i, st := range p.stacks {
		into[layerOf(st)] += p.values[i]
	}
}
