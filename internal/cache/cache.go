// Package cache models the node's two cache levels: set-associative,
// write-back, 64-byte lines, LRU replacement, with MESI line states
// (Table 3: 16 KB 4-way L1, 128 KB 4-way L2). The L2 (a Cache) holds the
// node's only functional copy of each line; the L1 (a Tags) is tag-only
// and links each of its ways to the L2 way holding the bytes. The levels
// are mechanical containers — lookup, insert, evict, state changes, timing
// port — while the coherence package owns the protocol that drives them.
package cache

import (
	"fmt"

	"revive/internal/arch"
	"revive/internal/sim"
)

// State is a MESI cache-line state.
type State uint8

const (
	// Invalid: the line is not present.
	Invalid State = iota
	// Shared: read-only copy; memory is up to date; others may share.
	Shared
	// Exclusive: the only cached copy; clean (memory up to date).
	Exclusive
	// Modified: the only cached copy; dirty (memory is stale).
	Modified
)

func (s State) String() string {
	if s <= Modified {
		return "ISEM"[s : s+1]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// CanWrite reports whether a processor may silently write a line in this
// state (the silent E->M upgrade of MESI).
func (s State) CanWrite() bool { return s == Exclusive || s == Modified }

// Config sizes one cache level.
type Config struct {
	SizeBytes int
	Ways      int
	// HitLatency is the access latency (2 ns L1, 12 ns L2).
	HitLatency sim.Time
	// Occupancy is the port busy time per access; it bounds the cache's
	// throughput to one access per Occupancy.
	Occupancy sim.Time
}

// L1Default and L2Default return the Table 3 cache configurations.
func L1Default() Config { return Config{SizeBytes: 16 * 1024, Ways: 4, HitLatency: 2, Occupancy: 1} }
func L2Default() Config { return Config{SizeBytes: 128 * 1024, Ways: 4, HitLatency: 12, Occupancy: 3} }

// noLine is the tag of an empty way: no line address is all ones.
const noLine = ^arch.LineAddr(0)

// level is one set-associative level. Tags (noLine when the way is empty)
// and LRU stamps sit in slices of their own, so a set scan reads only the
// set's tags; W is the per-way payload, zero in an empty way.
type level[W any] struct {
	cfg     Config
	port    *sim.Resource
	tags    []arch.LineAddr
	use     []uint64
	ways    []W
	setMask uint64
	useTick uint64

	// Hits and Misses count Lookup results.
	Hits, Misses uint64
}

// newLevel builds an empty level. The line count must be a multiple of
// Ways and the set count a power of two.
func newLevel[W any](engine *sim.Engine, cfg Config) level[W] {
	lines := cfg.SizeBytes / arch.LineBytes
	if lines%cfg.Ways != 0 {
		panic("cache: line count not a multiple of associativity")
	}
	nsets := lines / cfg.Ways
	if nsets&(nsets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	l := level[W]{cfg: cfg, port: sim.NewResource(engine), tags: make([]arch.LineAddr, lines),
		use: make([]uint64, lines), ways: make([]W, lines), setMask: uint64(nsets - 1)}
	for i := range l.tags {
		l.tags[i] = noLine
	}
	return l
}

// Config returns the level's configuration.
func (l *level[W]) Config() Config { return l.cfg }

// Sets returns the number of sets.
func (l *level[W]) Sets() int { return int(l.setMask) + 1 }

// Access reserves the cache port for one access and returns its completion
// time (start + hit latency). Timing only; pair with the functional calls.
func (l *level[W]) Access() sim.Time {
	return l.port.Reserve(l.cfg.Occupancy) + l.cfg.HitLatency
}

// AccessAt is Access for an operation that cannot start before earliest
// (e.g. an L2 access chained after the L1 lookup that missed).
func (l *level[W]) AccessAt(earliest sim.Time) sim.Time {
	return l.port.ReserveAt(earliest, l.cfg.Occupancy) + l.cfg.HitLatency
}

// find returns the way holding addr, or -1.
func (l *level[W]) find(addr arch.LineAddr) int {
	base := int(uint64(addr)&l.setMask) * l.cfg.Ways
	for i, t := range l.tags[base : base+l.cfg.Ways] {
		if t == addr {
			return base + i
		}
	}
	return -1
}

// Lookup finds the line, updating LRU and hit/miss counters. The returned
// pointer stays valid until the line is evicted or invalidated.
func (l *level[W]) Lookup(addr arch.LineAddr) *W {
	w := l.find(addr)
	if w < 0 {
		l.Misses++
		return nil
	}
	l.useTick++
	l.use[w] = l.useTick
	l.Hits++
	return &l.ways[w]
}

// Probe finds the line without touching LRU or counters (used by coherence
// interventions and checkpoint flushes).
func (l *level[W]) Probe(addr arch.LineAddr) *W {
	if w := l.find(addr); w >= 0 {
		return &l.ways[w]
	}
	return nil
}

// insert claims a way for addr, preferring an empty one, else the set's
// least recently used line for which pinned (if non-nil) is false. It
// returns the way's payload, still holding the evicted line's, and that
// line's address (noLine if the way was empty). Inserting a present line
// panics — always a protocol bug — as does a full set with every line
// pinned, which the machine's bounded outstanding requests rule out.
func (l *level[W]) insert(addr arch.LineAddr, pinned func(arch.LineAddr) bool) (slot *W, old arch.LineAddr) {
	base := int(uint64(addr)&l.setMask) * l.cfg.Ways
	set := l.tags[base : base+l.cfg.Ways]
	w := -1
	for i, t := range set {
		if t == addr {
			panic("cache: double insert of " + fmt.Sprint(addr))
		}
		if t == noLine {
			w = base + i
		}
	}
	if w < 0 {
		for i, t := range set {
			if (pinned == nil || !pinned(t)) && (w < 0 || l.use[base+i] < l.use[w]) {
				w = base + i
			}
		}
		if w < 0 {
			panic("cache: all ways pinned")
		}
	}
	old = l.tags[w]
	l.useTick++
	l.tags[w], l.use[w] = addr, l.useTick
	return &l.ways[w], old
}

// Invalidate removes the line, returning its final content (valid only if
// found is true).
func (l *level[W]) Invalidate(addr arch.LineAddr) (way W, found bool) {
	w := l.find(addr)
	if w < 0 {
		return way, false
	}
	way = l.ways[w]
	var zero W
	l.tags[w], l.ways[w] = noLine, zero
	return way, true
}

// InvalidateAll empties the level, returning how many lines were dropped.
// Rollback recovery uses it: everything modified since the checkpoint is
// discarded.
func (l *level[W]) InvalidateAll() int {
	n := l.ValidLines()
	for i := range l.tags {
		l.tags[i] = noLine
	}
	clear(l.ways)
	return n
}

// ValidLines counts occupied ways.
func (l *level[W]) ValidLines() int {
	n := 0
	for _, t := range l.tags {
		if t != noLine {
			n++
		}
	}
	return n
}

// Line is one way of a data level: its MESI state and its bytes.
type Line struct {
	State State
	Data  arch.Data
}

// Victim is a line an insert evicted, as it stood when evicted.
type Victim struct {
	Addr arch.LineAddr
	Line
}

// Cache is a data level (the L2): every way holds a line's state and bytes.
type Cache struct{ level[Line] }

// New builds an empty data level.
func New(engine *sim.Engine, cfg Config) *Cache {
	return &Cache{newLevel[Line](engine, cfg)}
}

// Insert is InsertPinned with nothing pinned.
func (c *Cache) Insert(addr arch.LineAddr, state State, data arch.Data) (slot *Line, victim Victim, evicted bool) {
	return c.InsertPinned(addr, state, data, nil)
}

// InsertPinned places a line, evicting the set's LRU line not pinned (the
// coherence layer pins lines with in-flight requests) if the set is full.
// It returns the filled way and, if evicted is true, the evicted line.
func (c *Cache) InsertPinned(addr arch.LineAddr, state State, data arch.Data,
	pinned func(arch.LineAddr) bool) (slot *Line, victim Victim, evicted bool) {
	slot, old := c.insert(addr, pinned)
	victim, evicted = Victim{Addr: old, Line: *slot}, old != noLine
	*slot = Line{State: state, Data: data}
	return slot, victim, evicted
}

// AppendDirty appends the addresses of all Modified lines to dst, in way
// order, for the checkpoint flush.
func (c *Cache) AppendDirty(dst []arch.LineAddr) []arch.LineAddr {
	for w := range c.ways {
		if c.ways[w].State == Modified {
			dst = append(dst, c.tags[w])
		}
	}
	return dst
}

// DirtyCount counts Modified lines.
func (c *Cache) DirtyCount() int { return len(c.AppendDirty(nil)) }

// Ref is one way of a tag-only level: the line's MESI state at this level
// and a link to the data level's way holding its bytes, which stores write.
type Ref struct {
	State State
	Line  *Line
}

// Tags is a tag-only level (the L1), inclusive in a data level: its owner
// back-invalidates a line here whenever the data level drops it, so each
// link names the data level's way for the same line.
type Tags struct{ level[Ref] }

// NewTags builds an empty tag-only level.
func NewTags(engine *sim.Engine, cfg Config) *Tags {
	return &Tags{newLevel[Ref](engine, cfg)}
}

// Insert links addr to its data-level way l, in l's state, evicting the
// set's LRU line if it is full. It returns the filled way and, if evicted
// is true, the evicted way.
func (t *Tags) Insert(addr arch.LineAddr, l *Line) (slot *Ref, victim Ref, evicted bool) {
	slot, old := t.insert(addr, nil)
	victim, evicted = *slot, old != noLine
	*slot = Ref{State: l.State, Line: l}
	return slot, victim, evicted
}

// FoldDirty marks each Modified way's data-level way (which holds its
// bytes) Modified and the way itself Exclusive, returning how many it
// folded: the L1 half of a checkpoint flush.
func (t *Tags) FoldDirty() int {
	n := 0
	for i := range t.ways {
		if r := &t.ways[i]; r.State == Modified {
			r.Line.State, r.State = Modified, Exclusive
			n++
		}
	}
	return n
}

// DirtyOnly counts the Modified ways whose data-level way is not Modified:
// the dirty lines this level adds to those the data level counts.
func (t *Tags) DirtyOnly() int {
	n := 0
	for i := range t.ways {
		if r := &t.ways[i]; r.State == Modified && r.Line.State != Modified {
			n++
		}
	}
	return n
}
