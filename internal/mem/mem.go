// Package mem models one node's local DRAM: 16 banks of open-row DDR with
// the Table 3 timing (60 ns row miss), a shared data port that bounds
// bandwidth, and functional line storage. The functional half is essential
// to ReVive: logs, parity and data hold real bytes so that rollback and
// parity reconstruction can be verified byte-for-byte.
package mem

import (
	"math/bits"
	"slices"

	"revive/internal/arch"
	"revive/internal/sim"
)

// Config carries the DRAM timing parameters (Table 3: "100MHz 16-bank DDR,
// 128 bits wide, 60ns row miss").
type Config struct {
	Banks int // number of independent banks (16)
	// RowHit and RowMiss are access latencies in ns. A bank is occupied
	// for the full latency of each access (DRAM banks are not pipelined
	// within a single access).
	RowHit  sim.Time
	RowMiss sim.Time
	// PortOccupancy is the data-port time per 64-byte line transfer.
	// Two PC1600 modules in parallel give 3.2 GB/s, i.e. 20 ns per line.
	PortOccupancy sim.Time
	// RowBytes is the size of a DRAM row for open-row hit detection.
	RowBytes uint64
}

// DefaultConfig returns the paper's Table 3 memory parameters.
func DefaultConfig() Config {
	return Config{
		Banks:         16,
		RowHit:        30,
		RowMiss:       60,
		PortOccupancy: 20,
		RowBytes:      8 * 1024,
	}
}

type bank struct {
	busy    *sim.Resource
	openRow uint64
	valid   bool
}

// Memory is one node's DRAM module: timed access plus functional storage.
// Addresses are node-local byte offsets (see arch.PhysLine.MemAddr).
type Memory struct {
	ctx   *sim.Ctx
	cfg   Config
	port  *sim.Resource
	banks []bank
	lost  bool

	// frames is the functional content indexed by local frame, and
	// stored counts its non-zero lines (zero lines are not stored).
	frames frames
	stored int

	// Partial device loss: local byte addresses in [lostLo, lostHi) are
	// destroyed while the rest of the module survives (a CXL-era failure
	// mode: one device of a pooled module dies). Active when lostHi > lostLo.
	lostLo, lostHi uint64

	// opFree is the free list of pooled read/rmw completions and scratch
	// the RMW working line; both avoid a heap allocation per access on the
	// hot path (every access runs on the engine's one event loop, so a
	// plain slice suffices).
	opFree  []*memOp
	scratch arch.Data

	// Accesses counts line accesses (reads+writes) for utilization and
	// Figure 10 cross-checks.
	Accesses uint64
}

// memOp is a pooled timed-completion record: the line content to deliver
// plus the caller's continuation, with fire bound once so scheduling it
// does not allocate.
type memOp struct {
	m      *Memory
	d      arch.Data
	done   func(arch.Data)
	fireFn func()
}

// fire delivers the content and returns the op to the pool first, so a
// continuation that synchronously issues another access reuses it.
func (op *memOp) fire() {
	m, d, done := op.m, op.d, op.done
	op.done = nil
	m.opFree = append(m.opFree, op)
	done(d)
}

func (m *Memory) getOp(d arch.Data, done func(arch.Data)) *memOp {
	if n := len(m.opFree); n > 0 {
		op := m.opFree[n-1]
		m.opFree = m.opFree[:n-1]
		op.d, op.done = d, done
		return op
	}
	op := &memOp{m: m, d: d, done: done}
	op.fireFn = op.fire
	return op
}

// New returns an empty (all-zero) memory. ctx schedules its access
// completions.
func New(ctx *sim.Ctx, cfg Config) *Memory {
	m := &Memory{
		ctx:   ctx,
		cfg:   cfg,
		port:  sim.NewResource(ctx.Engine()),
		banks: make([]bank, cfg.Banks),
	}
	for i := range m.banks {
		m.banks[i].busy = sim.NewResource(ctx.Engine())
	}
	return m
}

// access books the bank and port for one line access and returns the
// completion time.
func (m *Memory) access(addr uint64) sim.Time {
	m.Accesses++
	line := addr &^ uint64(arch.LineBytes-1)
	b := &m.banks[int(line>>arch.LineShift)%len(m.banks)]
	row := line / m.cfg.RowBytes
	lat := m.cfg.RowMiss
	if b.valid && b.openRow == row {
		lat = m.cfg.RowHit
	}
	b.openRow, b.valid = row, true
	bankDone := b.busy.Reserve(lat) + lat
	portStart := m.port.ReserveAt(bankDone, m.cfg.PortOccupancy)
	return portStart + m.cfg.PortOccupancy
}

// lineLost reports whether the line holding addr is destroyed — either the
// whole module is lost or the line falls inside a partially-lost range.
func (m *Memory) lineLost(addr uint64) bool {
	if m.lost {
		return true
	}
	line := addr &^ uint64(arch.LineBytes-1)
	return line >= m.lostLo && line < m.lostHi
}

// Read performs a timed read of the line at addr, delivering its content to
// done at completion. Reading lost memory panics: components must check
// Lost()/LineLost() and take the recovery path instead.
func (m *Memory) Read(addr uint64, done func(arch.Data)) {
	if m.lineLost(addr) {
		panic("mem: read of lost memory")
	}
	op := m.getOp(m.peek(addr), done)
	m.ctx.At(m.access(addr), op.fireFn)
}

// Write performs a timed write of the line at addr. done may be nil.
func (m *Memory) Write(addr uint64, d arch.Data, done func()) {
	if m.lineLost(addr) {
		panic("mem: write to lost memory")
	}
	m.poke(addr, d)
	at := m.access(addr)
	if done != nil {
		m.ctx.At(at, done)
	}
}

// ReadModifyWrite reads the line, applies f to it, writes the result, and
// calls done with the old content. It books two bank accesses (the parity
// update's read-XOR-write in Figure 4). done may be nil.
func (m *Memory) ReadModifyWrite(addr uint64, f func(*arch.Data), done func(old arch.Data)) {
	if m.lineLost(addr) {
		panic("mem: rmw of lost memory")
	}
	old := m.peek(addr)
	m.access(addr) // read
	m.scratch = old
	f(&m.scratch)
	m.poke(addr, m.scratch)
	at := m.access(addr) // write
	if done != nil {
		op := m.getOp(old, done)
		m.ctx.At(at, op.fireFn)
	}
}

func (m *Memory) peek(addr uint64) arch.Data { return m.frames.peek(addr) }

func (m *Memory) poke(addr uint64, d arch.Data) {
	f, bit := locate(addr)
	if d == (arch.Data{}) {
		if f < uint64(len(m.frames)) && m.frames[f].present&bit != 0 {
			m.frames[f].remove(bit)
			m.stored--
		}
		return
	}
	if f >= uint64(len(m.frames)) {
		m.frames = append(m.frames, make(frames, f+1-uint64(len(m.frames)))...)
	}
	fr := &m.frames[f]
	i := fr.index(bit)
	if fr.present&bit != 0 {
		fr.lines[i] = d
		return
	}
	fr.present |= bit
	fr.lines = slices.Insert(fr.lines, i, d)
	m.stored++
}

// Peek returns the line content with no timing effect (verification and
// recovery reconstruction use it). Peeking lost memory panics.
func (m *Memory) Peek(addr uint64) arch.Data {
	if m.lineLost(addr) {
		panic("mem: peek of lost memory")
	}
	return m.peek(addr)
}

// Poke sets the line content with no timing effect.
func (m *Memory) Poke(addr uint64, d arch.Data) {
	if m.lineLost(addr) {
		panic("mem: poke of lost memory")
	}
	m.poke(addr, d)
}

// MarkLost destroys the memory's contents, modeling permanent node loss.
// It subsumes any partially-lost range (the escalation ladder: a partial
// loss whose module then dies entirely is just a full loss).
func (m *Memory) MarkLost() {
	m.lost = true
	m.frames, m.stored = nil, 0
	m.lostLo, m.lostHi = 0, 0
}

// MarkLostRange destroys the lines in the local byte-address range [lo, hi),
// modeling partial device loss: one device of the module dies while the
// rest stays readable. A second overlapping or disjoint range widens the
// damage to the convex hull (the range stays contiguous, per the fault
// model). Marking a range on a fully-lost memory is a no-op.
func (m *Memory) MarkLostRange(lo, hi uint64) {
	if m.lost || hi <= lo {
		return
	}
	if m.lostHi > m.lostLo { // widen an existing range
		lo = min(lo, m.lostLo)
		hi = max(hi, m.lostHi)
	}
	m.lostLo, m.lostHi = lo, hi
	for f := lo >> arch.PageShift; f < uint64(len(m.frames)) && f<<arch.PageShift < hi; f++ {
		fr := &m.frames[f]
		for rest := fr.present; rest != 0; rest &= rest - 1 {
			line := f<<arch.PageShift | uint64(bits.TrailingZeros64(rest))<<arch.LineShift
			if line >= lo && line < hi {
				fr.remove(rest & -rest)
				m.stored--
			}
		}
	}
}

// Restore brings a lost memory back as an empty module (a replacement or
// re-initialized module whose content must be rebuilt from parity).
func (m *Memory) Restore() {
	m.lost = false
	m.lostLo, m.lostHi = 0, 0
	m.frames, m.stored = nil, 0
}

// RestoreRange replaces the partially-lost device: the range becomes
// readable again (as zeroes) and its content must be rebuilt from parity.
func (m *Memory) RestoreRange() {
	m.lostLo, m.lostHi = 0, 0
}

// Lost reports whether the memory's content has been destroyed entirely.
func (m *Memory) Lost() bool { return m.lost }

// PartialLost reports whether a partially-lost range is active.
func (m *Memory) PartialLost() bool { return m.lostHi > m.lostLo }

// LostRange returns the partially-lost local byte-address range [lo, hi);
// lo == hi when no partial loss is active.
func (m *Memory) LostRange() (lo, hi uint64) { return m.lostLo, m.lostHi }

// LineLost reports whether the line holding addr is unreadable (full or
// partial loss). Recovery and verification use it to scope reconstruction.
func (m *Memory) LineLost(addr uint64) bool { return m.lineLost(addr) }

// Snapshot returns a copy of the entire functional content keyed by
// line-aligned local address. Tests use it to compare whole images.
func (m *Memory) Snapshot() map[uint64]arch.Data {
	out := make(map[uint64]arch.Data, m.stored)
	for f, fr := range m.frames {
		i := 0
		for rest := fr.present; rest != 0; rest &= rest - 1 {
			out[uint64(f)<<arch.PageShift|uint64(bits.TrailingZeros64(rest))<<arch.LineShift] = fr.lines[i]
			i++
		}
	}
	return out
}

// LinesStored returns how many non-zero lines the memory holds.
func (m *Memory) LinesStored() int { return m.stored }

// PackedBytes returns the capacity reserved for line storage, in bytes:
// the stored lines plus the slack the per-frame slices grew into.
func (m *Memory) PackedBytes() int {
	n := 0
	for _, fr := range m.frames {
		n += cap(fr.lines)
	}
	return n * arch.LineBytes
}

// Present returns the presence bitmap of local frame f: bit i is set when
// line i of the frame is non-zero. Frames never written read as 0. Lines
// in a partially-lost range are absent; a fully-lost memory panics.
func (m *Memory) Present(f arch.Frame) uint64 {
	if m.lost {
		panic("mem: presence of lost memory")
	}
	return m.frames.at(uint64(f)).present
}

// Image returns a packed, immutable copy of the functional content: the
// checkpoint image the rollback oracle compares memory against.
func (m *Memory) Image() *Image {
	img := &Image{frames: make(frames, len(m.frames))}
	lines := make([]arch.Data, 0, m.stored)
	for f, fr := range m.frames {
		n := len(lines)
		lines = append(lines, fr.lines...)
		img.frames[f] = frame{present: fr.present, lines: lines[n:len(lines):len(lines)]}
	}
	return img
}

// FrameMatches reports whether local frame f holds exactly the content it
// has in img. Zero lines are never stored, so equal bitmaps and equal
// packed lines mean equal frames.
func (m *Memory) FrameMatches(img *Image, f arch.Frame) bool {
	a, b := m.frames.at(uint64(f)), img.frames.at(uint64(f))
	return a.present == b.present && slices.Equal(a.lines, b.lines)
}

// PortBusy reports the cumulative busy time of the data port (utilization
// reporting).
func (m *Memory) PortBusy() sim.Time { return m.port.BusyTime() }

// Image is a packed copy of one memory's functional content, with all its
// lines in a single allocation. It is never modified after Memory.Image.
type Image struct {
	frames frames
}

// Peek returns the image's content of the line holding addr.
func (img *Image) Peek(addr uint64) arch.Data { return img.frames.peek(addr) }

// frame is one local page of functional content: bit i of present is set
// when line i is non-zero, and lines holds exactly those lines packed in
// offset order. Dense 4 KB pages would waste most of their bytes: on Radix
// only 6-11% of a touched page's lines are non-zero.
type frame struct {
	present uint64
	lines   []arch.Data
}

// index returns where the line with presence bit bit sits (or would sit)
// in the packed lines.
func (fr *frame) index(bit uint64) int { return bits.OnesCount64(fr.present & (bit - 1)) }

// remove drops the stored line with presence bit bit.
func (fr *frame) remove(bit uint64) {
	i := fr.index(bit)
	fr.present &^= bit
	fr.lines = slices.Delete(fr.lines, i, i+1)
	if fr.present == 0 {
		fr.lines = nil
	}
}

// frames is functional content indexed by local frame.
type frames []frame

// locate splits a local byte address into its frame index and the line's
// presence bit within the frame.
func locate(addr uint64) (f, bit uint64) {
	return addr >> arch.PageShift, 1 << (addr >> arch.LineShift & (arch.LinesPerPage - 1))
}

// at returns frame f, or an empty frame beyond the written ones.
func (fs frames) at(f uint64) frame {
	if f < uint64(len(fs)) {
		return fs[f]
	}
	return frame{}
}

func (fs frames) peek(addr uint64) arch.Data {
	f, bit := locate(addr)
	fr := fs.at(f)
	if fr.present&bit == 0 {
		return arch.Data{}
	}
	return fr.lines[fr.index(bit)]
}
