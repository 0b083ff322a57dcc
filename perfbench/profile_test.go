package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf writer for building known profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

func (b *pb) uint(tag int, v uint64) {
	b.varint(uint64(tag)<<3 | 0)
	b.varint(v)
}

func (b *pb) bytes(tag int, data []byte) {
	b.varint(uint64(tag)<<3 | 2)
	b.varint(uint64(len(data)))
	b.Write(data)
}

func (b *pb) packed(tag int, vs ...uint64) {
	var p pb
	for _, v := range vs {
		p.varint(v)
	}
	b.bytes(tag, p.Bytes())
}

// knownProfile encodes a CPU profile whose attribution is known: each
// sample's CPU value names the layer it must land in.
func knownProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"revive/internal/mem.(*Memory).Peek",                  // 5
		"revive/internal/coherence.(*DirCtrl).drainHead",      // 6
		"runtime.mallocgc",                                    // 7
		"runtime.gcBgMarkWorker",                              // 8
		"main.main",                                           // 9
		"revive/internal/sim.(*Engine).Step",                  // 10
		"revive/internal/coherence.(*CacheCtrl).access.func1", // 11
	}
	var p pb
	for _, ty := range [][2]uint64{{1, 2}, {3, 4}} {
		var vt pb
		vt.uint(1, ty[0])
		vt.uint(2, ty[1])
		p.bytes(1, vt.Bytes())
	}
	// Functions 1..7 name strings 5..11.
	for id := uint64(1); id <= 7; id++ {
		var f pb
		f.uint(1, id)
		f.uint(2, id+4)
		p.bytes(5, f.Bytes())
	}
	// Locations: 1 is mem Peek inlined into drainHead (innermost first).
	locs := map[uint64][]uint64{1: {1, 2}, 2: {2}, 3: {3}, 4: {4}, 5: {5}, 6: {6}, 7: {7}}
	for id := uint64(1); id <= 7; id++ {
		var l pb
		l.uint(1, id)
		for _, fn := range locs[id] {
			var ln pb
			ln.uint(1, fn)
			l.bytes(4, ln.Bytes())
		}
		p.bytes(4, l.Bytes())
	}
	samples := []struct {
		locs []uint64
		cpu  uint64
	}{
		{[]uint64{1, 6}, 10},    // mem, through the inlined frame
		{[]uint64{2, 6}, 20},    // coherence
		{[]uint64{3, 7, 6}, 30}, // runtime frame skipped: coherence closure
		{[]uint64{4}, 40},       // collector
		{[]uint64{3, 4}, 5},     // allocation inside the collector: gc
		{[]uint64{5}, 50},       // no internal frame
		{[]uint64{6}, 7},        // sim
	}
	for _, s := range samples {
		var sp pb
		sp.packed(1, s.locs...)
		sp.packed(2, 1, s.cpu)
		p.bytes(2, sp.Bytes())
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p.Bytes())
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestAttributionOfKnownProfile(t *testing.T) {
	prof, err := parseProfile(knownProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	prof.attribute(got)
	want := map[string]int64{"mem": 10, "coherence": 50, "gc": 45, "other": 50, "sim": 7}
	if len(got) != len(want) {
		t.Fatalf("layers = %v; want %v", got, want)
	}
	for l, v := range want {
		if got[l] != v {
			t.Errorf("%s = %d; want %d (all: %v)", l, got[l], v, got)
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"revive/internal/cache.(*Cache).Lookup", "revive/internal/coherence.x"}, "cache"},
		{[]string{"runtime.memmove", "revive/internal/serve.(*Journal).Append"}, "serve"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		// A mark assist is charged to the allocating package.
		{[]string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "revive/internal/mem.(*Memory).Poke"}, "mem"},
		{[]string{"revive.New"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s; want %s", c.stack, got, c.want)
		}
	}
}

// The decoder reads what runtime/pprof actually writes.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	x := 0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		x++
	}
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.stacks) == 0 {
		t.Fatalf("no samples decoded from a 300ms busy loop (%d iterations)", x)
	}
	for _, st := range prof.stacks {
		if len(st) == 0 {
			t.Fatal("sample without frames")
		}
	}
}
