package core

import (
	"testing"
	"testing/quick"

	"revive/internal/arch"
	"revive/internal/mem"
	"revive/internal/sim"
)

func newTestLog() (*HWLog, *mem.Memory, *arch.AddressMap) {
	topo := arch.Topology{Nodes: 16, GroupSize: 8}
	amap := arch.NewAddressMap(topo)
	m := mem.New(sim.NewEngine().Context(0), mem.DefaultConfig())
	return NewHWLog(3, amap, m), m, amap
}

// writeEntry writes a complete, marker-validated entry functionally.
func writeEntry(l *HWLog, m *mem.Memory, line arch.LineAddr, epoch uint64, data arch.Data) {
	s := l.Reserve()
	m.Poke(arch.PhysLine{Node: 3, Frame: s.frame, Off: uint8(s.slot * entryLines)}.MemAddr(),
		encodeHeader(header{line: line, epoch: epoch, marker: markerValid}))
	m.Poke(arch.PhysLine{Node: 3, Frame: s.frame, Off: uint8(s.slot*entryLines + 1)}.MemAddr(), data)
}

func writeMarker(l *HWLog, m *mem.Memory, epoch uint64) {
	s := l.Reserve()
	m.Poke(arch.PhysLine{Node: 3, Frame: s.frame, Off: uint8(s.slot * entryLines)}.MemAddr(),
		encodeHeader(header{epoch: epoch, marker: markerCkpt}))
}

func TestHeaderRoundTrip(t *testing.T) {
	h := header{line: 0x123456789a, epoch: 42, marker: markerValid}
	if got := decodeHeader(encodeHeader(h)); got != h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
}

func TestPropertyHeaderRoundTrip(t *testing.T) {
	f := func(line, epoch, marker uint64) bool {
		h := header{line: arch.LineAddr(line), epoch: epoch, marker: marker}
		return decodeHeader(encodeHeader(h)) == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogGrowsAndPeaks(t *testing.T) {
	l, m, _ := newTestLog()
	writeMarker(l, m, 0)
	for i := 0; i < 10; i++ {
		writeEntry(l, m, arch.LineAddr(i), 0, arch.Data{byte(i)})
	}
	if l.Entries() != 11 {
		t.Fatalf("Entries = %d, want 11", l.Entries())
	}
	if l.RetainedBytes() != 11*EntryBytes {
		t.Fatalf("RetainedBytes = %d", l.RetainedBytes())
	}
	if l.PeakBytes != l.RetainedBytes() {
		t.Fatalf("PeakBytes = %d, want %d", l.PeakBytes, l.RetainedBytes())
	}
}

func TestReclaimKeepsTwoCheckpointsOfEntries(t *testing.T) {
	l, m, _ := newTestLog()
	writeMarker(l, m, 0)
	for i := 0; i < 5; i++ {
		writeEntry(l, m, arch.LineAddr(i), 0, arch.Data{1})
	}
	writeMarker(l, m, 1)
	for i := 0; i < 7; i++ {
		writeEntry(l, m, arch.LineAddr(i), 1, arch.Data{2})
	}
	writeMarker(l, m, 2)
	// After committing epoch 2, entries older than marker(1) reclaim.
	l.ReclaimTo(1)
	// Remaining: marker(1), 7 entries, marker(2).
	if l.Entries() != 9 {
		t.Fatalf("Entries after reclaim = %d, want 9", l.Entries())
	}
}

func TestReclaimRecyclesFrames(t *testing.T) {
	l, m, amap := newTestLog()
	before := amap.FramesUsed(3)
	// Fill several frames worth of entries across epochs, reclaiming as
	// a real run would; the footprint must stay bounded.
	for epoch := uint64(0); epoch < 20; epoch++ {
		writeMarker(l, m, epoch)
		for i := 0; i < 2*slotsPerFrame; i++ {
			writeEntry(l, m, arch.LineAddr(i), epoch, arch.Data{byte(epoch)})
		}
		if epoch >= 1 {
			l.ReclaimTo(epoch - 1)
		}
	}
	grown := amap.FramesUsed(3) - before
	// Two epochs retained, ~2 frames each, plus slack: allocation must
	// not grow linearly with the 20 epochs (~40+ frames without reuse).
	if grown > 12 {
		t.Fatalf("allocated %d frames for a bounded log; recycling broken", grown)
	}
}

func TestWalkNewestOrder(t *testing.T) {
	l, m, _ := newTestLog()
	writeMarker(l, m, 0)
	for i := 0; i < 5; i++ {
		writeEntry(l, m, arch.LineAddr(100+i), 0, arch.Data{byte(i)})
	}
	var got []byte
	l.walkNewest(func(s slotAddr) bool {
		h := decodeHeader(m.Peek(arch.PhysLine{Node: 3, Frame: s.frame,
			Off: uint8(s.slot * entryLines)}.MemAddr()))
		if h.marker != markerValid {
			return false
		}
		d := m.Peek(arch.PhysLine{Node: 3, Frame: s.frame,
			Off: uint8(s.slot*entryLines + 1)}.MemAddr())
		got = append(got, d[0])
		return true
	})
	want := []byte{4, 3, 2, 1, 0}
	if len(got) != 5 {
		t.Fatalf("walked %d entries, want 5", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk order %v, want %v", got, want)
		}
	}
}

func TestTruncateAtMarker(t *testing.T) {
	l, m, _ := newTestLog()
	writeMarker(l, m, 0)
	writeEntry(l, m, 1, 0, arch.Data{1})
	writeMarker(l, m, 1)
	writeEntry(l, m, 2, 1, arch.Data{2})
	writeEntry(l, m, 3, 1, arch.Data{3})
	if err := l.TruncateAtMarker(1); err != nil {
		t.Fatal(err)
	}
	// Remaining: marker(0), entry, marker(1).
	if l.Entries() != 3 {
		t.Fatalf("Entries after truncate = %d, want 3", l.Entries())
	}
}

func TestTruncateMissingMarkerErrors(t *testing.T) {
	l, m, _ := newTestLog()
	writeMarker(l, m, 0)
	if err := l.TruncateAtMarker(9); err == nil {
		t.Fatal("no error for missing marker")
	}
}

func TestLogFramesListedForRecovery(t *testing.T) {
	l, m, _ := newTestLog()
	writeMarker(l, m, 0)
	for i := 0; i < slotsPerFrame+3; i++ { // spills into a second frame
		writeEntry(l, m, arch.LineAddr(i), 0, arch.Data{1})
	}
	if n := len(l.Frames()); n != 2 {
		t.Fatalf("live frames = %d, want 2", n)
	}
	if n := len(l.AllFrames()); n < 2 {
		t.Fatalf("all frames = %d, want >= 2", n)
	}
}

// Property: Reserve never hands out overlapping slots among retained
// entries, and entries land on data (non-parity) frames.
func TestPropertySlotsDistinctAndOnDataFrames(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%100) + 1
		l, _, _ := newTestLog()
		topo := arch.Topology{Nodes: 16, GroupSize: 8}
		seen := map[slotAddr]bool{}
		for i := 0; i < n; i++ {
			s := l.Reserve()
			if seen[s] {
				return false
			}
			seen[s] = true
			if topo.IsParityFrame(3, s.frame) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
