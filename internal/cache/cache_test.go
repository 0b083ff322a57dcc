package cache

import (
	"testing"
	"testing/quick"

	"revive/internal/arch"
	"revive/internal/sim"
)

func newL1() *Cache {
	return New(sim.NewEngine(), L1Default())
}

func d(b byte) arch.Data {
	var out arch.Data
	for i := range out {
		out[i] = b
	}
	return out
}

func TestGeometry(t *testing.T) {
	c := newL1()
	// 16KB / 64B = 256 lines / 4 ways = 64 sets.
	if c.Sets() != 64 {
		t.Fatalf("Sets = %d, want 64", c.Sets())
	}
	c2 := New(sim.NewEngine(), L2Default())
	if c2.Sets() != 512 {
		t.Fatalf("L2 Sets = %d, want 512", c2.Sets())
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := newL1()
	if c.Lookup(10) != nil {
		t.Fatal("lookup hit in empty cache")
	}
	c.Insert(10, Shared, d(1))
	l := c.Lookup(10)
	if l == nil || l.State != Shared || l.Data != d(1) {
		t.Fatalf("lookup after insert = %+v", l)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestProbeDoesNotCount(t *testing.T) {
	c := newL1()
	c.Insert(10, Modified, d(2))
	c.Probe(10)
	c.Probe(11)
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatal("Probe affected hit/miss counters")
	}
}

func TestDoubleInsertPanics(t *testing.T) {
	c := newL1()
	c.Insert(10, Shared, d(1))
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	c.Insert(10, Exclusive, d(2))
}

func TestLRUEviction(t *testing.T) {
	c := newL1()
	// Fill one set: addresses congruent mod 64 share a set.
	addrs := []arch.LineAddr{0, 64, 128, 192}
	for i, a := range addrs {
		c.Insert(a, Shared, d(byte(i)))
	}
	// Touch all but the first so it becomes LRU.
	c.Lookup(64)
	c.Lookup(128)
	c.Lookup(192)
	_, victim, evicted := c.Insert(256, Shared, d(9))
	if !evicted {
		t.Fatal("no eviction from full set")
	}
	if victim.Addr != 0 {
		t.Fatalf("evicted %d, want 0 (LRU)", victim.Addr)
	}
}

func TestInsertIntoInvalidSlotNoEviction(t *testing.T) {
	c := newL1()
	c.Insert(0, Shared, d(1))
	c.Invalidate(0)
	_, _, evicted := c.Insert(64, Shared, d(2))
	if evicted {
		t.Fatal("eviction despite free (invalidated) slot")
	}
}

func TestInvalidate(t *testing.T) {
	c := newL1()
	c.Insert(5, Modified, d(7))
	line, found := c.Invalidate(5)
	if !found || line.Data != d(7) || line.State != Modified {
		t.Fatalf("Invalidate = %+v, %v", line, found)
	}
	if c.Probe(5) != nil {
		t.Fatal("line still present after Invalidate")
	}
	if _, found := c.Invalidate(5); found {
		t.Fatal("second Invalidate found the line")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := newL1()
	for i := arch.LineAddr(0); i < 100; i++ {
		c.Insert(i, Exclusive, d(1))
	}
	if n := c.InvalidateAll(); n != 100 {
		t.Fatalf("InvalidateAll = %d, want 100", n)
	}
	if c.ValidLines() != 0 {
		t.Fatal("lines remain after InvalidateAll")
	}
}

func TestDirtyLinesAndCounts(t *testing.T) {
	c := newL1()
	c.Insert(1, Modified, d(1))
	c.Insert(2, Shared, d(2))
	c.Insert(3, Modified, d(3))
	c.Insert(4, Exclusive, d(4))
	dirty := c.AppendDirty(nil)
	if len(dirty) != 2 || c.DirtyCount() != 2 {
		t.Fatalf("dirty = %d lines, count %d; want 2, 2", len(dirty), c.DirtyCount())
	}
	if c.ValidLines() != 4 {
		t.Fatalf("ValidLines = %d, want 4", c.ValidLines())
	}
}

func TestStateCanWrite(t *testing.T) {
	if Invalid.CanWrite() || Shared.CanWrite() {
		t.Fatal("I/S must not be writable")
	}
	if !Exclusive.CanWrite() || !Modified.CanWrite() {
		t.Fatal("E/M must be writable")
	}
}

func TestAccessTimingSerializesOnPort(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, L1Default())
	t1 := c.Access()
	t2 := c.Access()
	if t1 != 2 { // start 0 + latency 2
		t.Fatalf("first access completes at %d, want 2", t1)
	}
	if t2 != 3 { // start 1 (occupancy) + latency 2
		t.Fatalf("second access completes at %d, want 3", t2)
	}
}

// Property: the cache never holds two valid entries for the same address,
// and never exceeds its capacity, under any insert/invalidate sequence.
func TestPropertySingleCopyAndCapacity(t *testing.T) {
	f := func(ops []struct {
		Addr uint8
		Inv  bool
	}) bool {
		c := newL1()
		capacity := c.Config().SizeBytes / arch.LineBytes
		for _, op := range ops {
			a := arch.LineAddr(op.Addr)
			if op.Inv {
				c.Invalidate(a)
				continue
			}
			if c.Probe(a) == nil {
				c.Insert(a, Shared, d(byte(op.Addr)))
			}
		}
		if c.ValidLines() > capacity {
			return false
		}
		// Duplicate scan: every held address appears in one way only.
		seen := map[arch.LineAddr]int{}
		for _, tag := range c.tags {
			if tag != noLine {
				seen[tag]++
			}
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: inserted data is returned intact until eviction or overwrite.
func TestPropertyDataIntegrity(t *testing.T) {
	f := func(vals []byte) bool {
		c := newL1()
		want := map[arch.LineAddr]arch.Data{}
		for i, v := range vals {
			a := arch.LineAddr(i)
			if _, victim, ev := c.Insert(a, Modified, d(v)); ev {
				if want[victim.Addr] != victim.Data {
					return false
				}
				delete(want, victim.Addr)
			}
			want[a] = d(v)
		}
		for a, w := range want {
			l := c.Probe(a)
			if l == nil || l.Data != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Pin the per-reference paths the cache controller runs: an L1 hit, an L2
// hit whose L1 fill evicts a dirty L1 victim, and a store written through
// an L1 way's link all allocate nothing.
func TestLevelsZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	l1, l2 := NewTags(e, L1Default()), New(e, L2Default())
	// Five lines in one L1 set (stride 64 sets) but distinct L2 sets:
	// visiting them round-robin misses L1 every time and evicts the line
	// visited four steps earlier.
	var lines [5]arch.LineAddr
	for i := range lines {
		lines[i] = arch.LineAddr(64 * i)
		slot, _, _ := l2.Insert(lines[i], Exclusive, d(byte(i)))
		if i < 4 {
			r, _, _ := l1.Insert(lines[i], slot)
			r.State = Modified
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if l1.Lookup(lines[3]) == nil {
			t.Fatal("L1 miss on a resident line")
		}
	}); allocs != 0 {
		t.Fatalf("L1 hit allocates %.1f per op, want 0", allocs)
	}
	i := 4
	if allocs := testing.AllocsPerRun(1000, func() {
		a := lines[i%5]
		i++
		if l1.Lookup(a) != nil {
			t.Fatal("round-robin visit hit L1")
		}
		r, victim, evicted := l1.Insert(a, l2.Lookup(a))
		if !evicted || victim.State != Modified {
			t.Fatal("fill did not evict a dirty victim")
		}
		victim.Line.State = Modified
		r.State = Modified
	}); allocs != 0 {
		t.Fatalf("L2 hit with dirty-victim L1 fill allocates %.1f per op, want 0", allocs)
	}
	v := byte(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		v++
		r := l1.Lookup(lines[(i-1)%5])
		r.Line.Data[8] = v
		r.State = Modified
	}); allocs != 0 {
		t.Fatalf("store through the link allocates %.1f per op, want 0", allocs)
	}
}
