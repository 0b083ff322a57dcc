package mem

import (
	"reflect"
	"testing"
	"testing/quick"

	"revive/internal/arch"
	"revive/internal/sim"
)

func newTestMem() (*sim.Engine, *Memory) {
	e := sim.NewEngine()
	return e, New(e.Context(0), DefaultConfig())
}

func lineData(b byte) arch.Data {
	var d arch.Data
	for i := range d {
		d[i] = b
	}
	return d
}

func TestReadOfUnwrittenLineIsZero(t *testing.T) {
	e, m := newTestMem()
	var got arch.Data
	done := false
	m.Read(0x1000, func(d arch.Data) { got = d; done = true })
	e.Run()
	if !done {
		t.Fatal("read never completed")
	}
	if !got.IsZero() {
		t.Fatal("unwritten line not zero")
	}
}

func TestWriteThenReadReturnsData(t *testing.T) {
	e, m := newTestMem()
	want := lineData(0xAB)
	m.Write(0x40, want, nil)
	var got arch.Data
	m.Read(0x40, func(d arch.Data) { got = d })
	e.Run()
	if got != want {
		t.Fatal("read did not return written data")
	}
}

func TestAccessTakesRowMissLatency(t *testing.T) {
	e, m := newTestMem()
	var completed sim.Time
	m.Read(0, func(arch.Data) { completed = e.Now() })
	e.Run()
	// First access: row miss (60) + port (20).
	if completed != 80 {
		t.Fatalf("first access completed at %d, want 80", completed)
	}
}

func TestRowHitIsFaster(t *testing.T) {
	// Two reads to the same row on the same bank: second pays row-hit.
	e, m := newTestMem()
	var t1, t2 sim.Time
	m.Read(0, func(arch.Data) { t1 = e.Now() })
	e.Run()
	// Same line again: same bank, same row -> 30 + 20, but bank was free.
	m.Read(0, func(arch.Data) { t2 = e.Now() })
	e.Run()
	if d := t2 - t1; d != 50 {
		t.Fatalf("row-hit access took %d, want 50", d)
	}
}

func TestDifferentBanksOverlap(t *testing.T) {
	e, m := newTestMem()
	var done []sim.Time
	// Lines 0 and 1 map to banks 0 and 1: bank latencies overlap, the
	// shared port serializes only the 20ns transfers.
	m.Read(0*arch.LineBytes, func(arch.Data) { done = append(done, e.Now()) })
	m.Read(1*arch.LineBytes, func(arch.Data) { done = append(done, e.Now()) })
	e.Run()
	if done[0] != 80 {
		t.Fatalf("first done at %d, want 80", done[0])
	}
	if done[1] != 100 { // bank done at 60, port free at 80, +20
		t.Fatalf("second done at %d, want 100", done[1])
	}
}

func TestSameBankSerializes(t *testing.T) {
	e, m := newTestMem()
	cfg := DefaultConfig()
	var done []sim.Time
	// Same bank (same line), different rows: both row misses, serialized.
	a1 := uint64(0)
	a2 := cfg.RowBytes * uint64(cfg.Banks) // same bank 0, different row
	m.Read(a1, func(arch.Data) { done = append(done, e.Now()) })
	m.Read(a2, func(arch.Data) { done = append(done, e.Now()) })
	e.Run()
	if done[0] != 80 || done[1] != 140 { // second: bank 60..120, port +20
		t.Fatalf("done times = %v, want [80 140]", done)
	}
}

func TestReadModifyWrite(t *testing.T) {
	e, m := newTestMem()
	m.Write(0x80, lineData(0x0F), nil)
	e.Run()
	delta := lineData(0xF0)
	var old arch.Data
	m.ReadModifyWrite(0x80, func(d *arch.Data) { d.XOR(&delta) }, func(o arch.Data) { old = o })
	e.Run()
	if old != lineData(0x0F) {
		t.Fatal("RMW old value wrong")
	}
	if got := m.Peek(0x80); got != lineData(0xFF) {
		t.Fatal("RMW result wrong")
	}
}

func TestRMWCountsTwoAccesses(t *testing.T) {
	e, m := newTestMem()
	m.ReadModifyWrite(0, func(*arch.Data) {}, nil)
	e.Run()
	if m.Accesses != 2 {
		t.Fatalf("RMW accesses = %d, want 2", m.Accesses)
	}
}

func TestSubLineAddressesAlias(t *testing.T) {
	e, m := newTestMem()
	m.Write(0x100, lineData(1), nil)
	var got arch.Data
	m.Read(0x100+17, func(d arch.Data) { got = d })
	e.Run()
	if got != lineData(1) {
		t.Fatal("sub-line address did not alias to same line")
	}
}

func TestZeroLineIsNotStored(t *testing.T) {
	_, m := newTestMem()
	m.Poke(0x40, lineData(5))
	if m.LinesStored() != 1 {
		t.Fatalf("LinesStored = %d, want 1", m.LinesStored())
	}
	m.Poke(0x40, arch.Data{})
	if m.LinesStored() != 0 {
		t.Fatalf("LinesStored after zeroing = %d, want 0", m.LinesStored())
	}
}

func TestMarkLostDestroysAndPanics(t *testing.T) {
	_, m := newTestMem()
	m.Poke(0, lineData(9))
	m.MarkLost()
	if !m.Lost() {
		t.Fatal("Lost() false after MarkLost")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Peek of lost memory did not panic")
		}
	}()
	m.Peek(0)
}

func TestRestoreAfterLoss(t *testing.T) {
	_, m := newTestMem()
	m.Poke(0, lineData(9))
	m.MarkLost()
	m.Restore()
	if m.Lost() {
		t.Fatal("still lost after Restore")
	}
	if got := m.Peek(0); !got.IsZero() {
		t.Fatal("Restore kept old contents")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	_, m := newTestMem()
	m.Poke(0x40, lineData(3))
	snap := m.Snapshot()
	m.Poke(0x40, lineData(4))
	if snap[0x40] != lineData(3) {
		t.Fatal("snapshot mutated by later write")
	}
}

// Property: a sequence of pokes followed by peeks behaves like a map of
// line-aligned addresses (last write wins).
func TestPropertyLastWriteWins(t *testing.T) {
	f := func(ops []struct {
		Addr uint16
		Val  byte
	}) bool {
		_, m := newTestMem()
		model := map[uint64]arch.Data{}
		for _, op := range ops {
			a := uint64(op.Addr) &^ uint64(arch.LineBytes-1)
			d := lineData(op.Val)
			m.Poke(a, d)
			model[a] = d
		}
		for a, want := range model {
			if m.Peek(a) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: accesses never complete before the minimum possible latency
// (row hit + port) and Accesses counts every operation.
func TestPropertyMinimumLatency(t *testing.T) {
	f := func(addrsRaw []uint16) bool {
		e, m := newTestMem()
		issued := e.Now()
		ok := true
		for _, a := range addrsRaw {
			m.Read(uint64(a), func(arch.Data) {
				if e.Now()-issued < 50 { // rowHit 30 + port 20
					ok = false
				}
			})
		}
		e.Run()
		return ok && m.Accesses == uint64(len(addrsRaw))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Pin the hot-path win: timed reads and read-modify-writes reuse pooled
// completion ops and the RMW scratch line, so the steady state of the
// parity/log memory traffic allocates nothing.
func TestAccessZeroAlloc(t *testing.T) {
	e, m := newTestMem()
	var d arch.Data
	d[0] = 1
	m.Poke(0, d)
	readDone := func(arch.Data) {}
	xor := func(l *arch.Data) { l.XOR(&d) }
	m.Read(0, readDone)
	m.ReadModifyWrite(0, xor, readDone)
	e.Run()
	if allocs := testing.AllocsPerRun(1000, func() {
		m.Read(0, readDone)
		e.Run()
	}); allocs != 0 {
		t.Fatalf("steady-state Read allocates %.1f per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		m.ReadModifyWrite(0, xor, readDone)
		e.Run()
	}); allocs != 0 {
		t.Fatalf("steady-state ReadModifyWrite allocates %.1f per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { d = m.Peek(0) }); allocs != 0 {
		t.Fatalf("Peek allocates %.1f per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		d[1]++
		m.Poke(0, d)
	}); allocs != 0 {
		t.Fatalf("overwriting a stored line allocates %.1f per op, want 0", allocs)
	}
}

// refMem is the reference model of the functional half of Memory: a map
// of the non-zero lines plus the loss state, the representation packed
// frames replaced.
type refMem struct {
	data           map[uint64]arch.Data
	lost           bool
	lostLo, lostHi uint64
}

func (r *refMem) lineLost(addr uint64) bool {
	line := addr &^ uint64(arch.LineBytes-1)
	return r.lost || (line >= r.lostLo && line < r.lostHi)
}

func (r *refMem) clone() map[uint64]arch.Data {
	out := make(map[uint64]arch.Data, len(r.data))
	for k, v := range r.data {
		out[k] = v
	}
	return out
}

// TestPackedMatchesMapModel drives Memory and the map model with the same
// random operations and checks they agree on every line after each one:
// Poke/Peek (zero writes included), MarkLostRange, MarkLost, Restore,
// RestoreRange, Snapshot, Image, Present and LinesStored. Seeds vary the address
// space and the share of zero writes, so some frames fill up completely.
func TestPackedMatchesMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		space := (1 + seed%4) * arch.PageBytes
		zeroOneIn := 3 + int(seed%3)*10
		rng := sim.NewRand(seed)
		_, m := newTestMem()
		ref := &refMem{data: map[uint64]arch.Data{}}
		type saved struct {
			img  *Image
			want map[uint64]arch.Data
		}
		var images []saved
		for step := 0; step < 3000; step++ {
			switch k := rng.Intn(1000); {
			case k < 900:
				addr := rng.Uint64() % space
				if ref.lineLost(addr) {
					continue
				}
				var d arch.Data
				if rng.Intn(zeroOneIn) > 0 {
					d[rng.Intn(arch.LineBytes)] = byte(rng.Intn(255) + 1)
				}
				m.Poke(addr, d)
				line := addr &^ uint64(arch.LineBytes-1)
				if d.IsZero() {
					delete(ref.data, line)
				} else {
					ref.data[line] = d
				}
			case k < 915:
				lo := rng.Uint64() % space
				hi := lo + uint64(rng.Intn(2*arch.PageBytes))
				if rng.Intn(2) == 0 { // line-aligned bounds
					lo &^= arch.LineBytes - 1
					hi &^= arch.LineBytes - 1
				}
				m.MarkLostRange(lo, hi)
				if ref.lost || hi <= lo {
					continue
				}
				if ref.lostHi > ref.lostLo {
					lo, hi = min(lo, ref.lostLo), max(hi, ref.lostHi)
				}
				ref.lostLo, ref.lostHi = lo, hi
				for line := range ref.data {
					if ref.lineLost(line) {
						delete(ref.data, line)
					}
				}
			case k < 920:
				m.MarkLost()
				*ref = refMem{data: map[uint64]arch.Data{}, lost: true}
			case k < 970:
				if ref.lost {
					m.Restore()
					ref.lost = false
				} else {
					m.RestoreRange()
				}
				ref.lostLo, ref.lostHi = 0, 0
			case k < 985:
				if got := m.Snapshot(); !reflect.DeepEqual(got, ref.data) {
					t.Fatalf("seed %d step %d: Snapshot differs from the model", seed, step)
				}
			default:
				images = append(images, saved{m.Image(), ref.clone()})
			}
			if m.LinesStored() != len(ref.data) {
				t.Fatalf("seed %d step %d: LinesStored = %d, model holds %d",
					seed, step, m.LinesStored(), len(ref.data))
			}
			if m.Lost() != ref.lost || m.PartialLost() != (ref.lostHi > ref.lostLo) {
				t.Fatalf("seed %d step %d: loss state differs from the model", seed, step)
			}
			for addr := uint64(0); addr < space; addr += arch.LineBytes {
				if m.LineLost(addr) != ref.lineLost(addr) {
					t.Fatalf("seed %d step %d: LineLost(%#x) = %v, model %v",
						seed, step, addr, m.LineLost(addr), ref.lineLost(addr))
				}
				if !ref.lineLost(addr) && m.Peek(addr) != ref.data[addr] {
					t.Fatalf("seed %d step %d: Peek(%#x) differs from the model", seed, step, addr)
				}
			}
			for f := uint64(0); !ref.lost && f < space/arch.PageBytes; f++ {
				var want uint64
				for i := uint64(0); i < arch.LinesPerPage; i++ {
					if _, ok := ref.data[f*arch.PageBytes+i*arch.LineBytes]; ok {
						want |= 1 << i
					}
				}
				if got := m.Present(arch.Frame(f)); got != want {
					t.Fatalf("seed %d step %d: Present(%d) = %#x, model %#x", seed, step, f, got, want)
				}
			}
		}
		for i, s := range images {
			for addr := uint64(0); addr < space; addr += arch.LineBytes {
				if s.img.Peek(addr) != s.want[addr] {
					t.Fatalf("seed %d image %d: Peek(%#x) changed after the image was taken", seed, i, addr)
				}
			}
		}
	}
}

// TestFullFrameFillAndDrain fills one frame line by line in a scrambled
// order, then zeroes it in another, checking every line at each step: the
// packed index must hold at both ends of the bitmap.
func TestFullFrameFillAndDrain(t *testing.T) {
	_, m := newTestMem()
	const base = 3 * arch.PageBytes
	check := func(filled map[int]bool) {
		t.Helper()
		for i := 0; i < arch.LinesPerPage; i++ {
			want := arch.Data{}
			if filled[i] {
				want = lineData(byte(i + 1))
			}
			if got := m.Peek(base + uint64(i)*arch.LineBytes); got != want {
				t.Fatalf("line %d = %x, want %x", i, got[:1], want[:1])
			}
		}
		if m.LinesStored() != len(filled) {
			t.Fatalf("LinesStored = %d, want %d", m.LinesStored(), len(filled))
		}
	}
	filled := map[int]bool{}
	for k := 0; k < arch.LinesPerPage; k++ {
		i := k * 37 % arch.LinesPerPage
		m.Poke(base+uint64(i)*arch.LineBytes, lineData(byte(i+1)))
		filled[i] = true
		check(filled)
	}
	if m.Present(3) != ^uint64(0) {
		t.Fatalf("Present(3) = %#x on a full frame", m.Present(3))
	}
	for k := 0; k < arch.LinesPerPage; k++ {
		i := k * 23 % arch.LinesPerPage
		m.Poke(base+uint64(i)*arch.LineBytes, arch.Data{})
		delete(filled, i)
		check(filled)
	}
}

func TestFrameMatchesImage(t *testing.T) {
	_, m := newTestMem()
	m.Poke(0x40, lineData(1))
	m.Poke(arch.PageBytes, lineData(2))
	img := m.Image()
	if !m.FrameMatches(img, 0) || !m.FrameMatches(img, 1) || !m.FrameMatches(img, 7) {
		t.Fatal("fresh image does not match its memory")
	}
	m.Poke(0x40, lineData(3)) // same bitmap, different content
	if m.FrameMatches(img, 0) {
		t.Fatal("changed line not detected")
	}
	m.Poke(0x40, lineData(1))
	m.Poke(0x80, lineData(4)) // different bitmap
	if m.FrameMatches(img, 0) {
		t.Fatal("added line not detected")
	}
	if !m.FrameMatches(img, 1) {
		t.Fatal("untouched frame reported changed")
	}
}

func TestMarkLostRangeDestroysOnlyTheRange(t *testing.T) {
	_, m := newTestMem()
	m.Poke(0x000, lineData(1)) // below the range: survives
	m.Poke(0x100, lineData(2)) // inside: destroyed
	m.Poke(0x300, lineData(3)) // above: survives
	m.MarkLostRange(0x100, 0x200)
	if m.Lost() {
		t.Fatal("partial loss reported the whole module lost")
	}
	if !m.PartialLost() {
		t.Fatal("PartialLost() false after MarkLostRange")
	}
	if lo, hi := m.LostRange(); lo != 0x100 || hi != 0x200 {
		t.Fatalf("LostRange = [%#x, %#x), want [0x100, 0x200)", lo, hi)
	}
	if m.LineLost(0x000) || m.LineLost(0x300) {
		t.Fatal("surviving lines flagged lost")
	}
	if !m.LineLost(0x100) || !m.LineLost(0x1c0) {
		t.Fatal("lines inside the range not flagged lost")
	}
	if got := m.Peek(0x000); got != lineData(1) {
		t.Fatal("surviving line below the range lost its content")
	}
	if got := m.Peek(0x300); got != lineData(3) {
		t.Fatal("surviving line above the range lost its content")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Peek inside the lost range did not panic")
		}
	}()
	m.Peek(0x100)
}

func TestMarkLostRangeWidensToConvexHull(t *testing.T) {
	_, m := newTestMem()
	m.Poke(0x240, lineData(7)) // between the two marked ranges
	m.MarkLostRange(0x100, 0x200)
	m.MarkLostRange(0x300, 0x400)
	lo, hi := m.LostRange()
	if lo != 0x100 || hi != 0x400 {
		t.Fatalf("two disjoint ranges gave [%#x, %#x), want the hull [0x100, 0x400)", lo, hi)
	}
	// The hull swallowed the line between the ranges: it is lost too.
	if !m.LineLost(0x240) {
		t.Fatal("line between the widened ranges not flagged lost")
	}
}

func TestRestoreRangeClearsPartialLoss(t *testing.T) {
	_, m := newTestMem()
	m.Poke(0x100, lineData(5))
	m.MarkLostRange(0x100, 0x200)
	m.RestoreRange()
	if m.PartialLost() || m.LineLost(0x100) {
		t.Fatal("still partially lost after RestoreRange")
	}
	if got := m.Peek(0x100); !got.IsZero() {
		t.Fatal("RestoreRange kept destroyed content; it must read as zeroes until rebuilt")
	}
}

func TestMarkLostSubsumesPartialRange(t *testing.T) {
	_, m := newTestMem()
	m.MarkLostRange(0x100, 0x200)
	m.MarkLost()
	if !m.Lost() || m.PartialLost() {
		t.Fatal("full loss did not subsume the partial range")
	}
	// And the other direction: a range marked on a fully-lost module is a
	// no-op, not a downgrade.
	m.MarkLostRange(0x300, 0x400)
	if m.PartialLost() {
		t.Fatal("partial mark downgraded a full loss")
	}
}
