package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"revive/internal/arch"
	"revive/internal/sim"
)

// model is the naive reference the tag arrays are checked against: a map
// from line to content plus, per set, a recency list with the least
// recently used line first.
type model struct {
	sets, ways   int
	lines        map[arch.LineAddr]Line
	recency      [][]arch.LineAddr
	hits, misses uint64
}

func newModel(cfg Config) *model {
	ways := cfg.Ways
	sets := cfg.SizeBytes / arch.LineBytes / ways
	return &model{sets: sets, ways: ways, lines: map[arch.LineAddr]Line{},
		recency: make([][]arch.LineAddr, sets)}
}

func (m *model) set(a arch.LineAddr) int { return int(uint64(a) % uint64(m.sets)) }

func (m *model) touch(a arch.LineAddr) {
	s := m.set(a)
	i := slices.Index(m.recency[s], a)
	m.recency[s] = append(slices.Delete(m.recency[s], i, i+1), a)
}

func (m *model) lookup(a arch.LineAddr) (Line, bool) {
	l, ok := m.lines[a]
	if ok {
		m.hits++
		m.touch(a)
	} else {
		m.misses++
	}
	return l, ok
}

// insert returns the victim (Addr noLine when none) or ok=false when every
// line of the full set is pinned.
func (m *model) insert(a arch.LineAddr, l Line, pinned map[arch.LineAddr]bool) (victim Victim, ok bool) {
	s := m.set(a)
	victim.Addr = noLine
	if len(m.recency[s]) == m.ways {
		i := slices.IndexFunc(m.recency[s], func(x arch.LineAddr) bool { return !pinned[x] })
		if i < 0 {
			return victim, false
		}
		v := m.recency[s][i]
		victim = Victim{Addr: v, Line: m.lines[v]}
		delete(m.lines, v)
		m.recency[s] = slices.Delete(m.recency[s], i, i+1)
	}
	m.lines[a] = l
	m.recency[s] = append(m.recency[s], a)
	return victim, true
}

func (m *model) invalidate(a arch.LineAddr) (Line, bool) {
	l, ok := m.lines[a]
	if ok {
		s := m.set(a)
		i := slices.Index(m.recency[s], a)
		m.recency[s] = slices.Delete(m.recency[s], i, i+1)
		delete(m.lines, a)
	}
	return l, ok
}

func (m *model) dirty() []arch.LineAddr {
	var out []arch.LineAddr
	for a, l := range m.lines {
		if l.State == Modified {
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return out
}

// panics reports whether fn panicked.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// testLevel is the interface the model check drives: a data level directly,
// or a tag-only level whose ways link to stand-in data ways.
type testLevel interface {
	lookup(a arch.LineAddr) (Line, bool)
	probe(a arch.LineAddr) (*Line, bool) // handle for in-place changes
	insert(a arch.LineAddr, l Line, pinned func(arch.LineAddr) bool) (Victim, bool)
	invalidate(a arch.LineAddr) (Line, bool)
	invalidateAll() int
	counts() (hits, misses uint64, valid int)
	dirty() []arch.LineAddr
}

type dataLevel struct{ c *Cache }

func (d dataLevel) lookup(a arch.LineAddr) (Line, bool) {
	if l := d.c.Lookup(a); l != nil {
		return *l, true
	}
	return Line{}, false
}

func (d dataLevel) probe(a arch.LineAddr) (*Line, bool) { l := d.c.Probe(a); return l, l != nil }

func (d dataLevel) insert(a arch.LineAddr, l Line, pinned func(arch.LineAddr) bool) (Victim, bool) {
	slot, v, evicted := d.c.InsertPinned(a, l.State, l.Data, pinned)
	if slot != d.c.Probe(a) || *slot != l {
		panic("Insert returned the wrong slot")
	}
	return v, evicted
}

func (d dataLevel) invalidate(a arch.LineAddr) (Line, bool) { return d.c.Invalidate(a) }
func (d dataLevel) invalidateAll() int                      { return d.c.InvalidateAll() }

func (d dataLevel) counts() (uint64, uint64, int) {
	if len(d.c.AppendDirty(nil)) != d.c.DirtyCount() {
		panic("AppendDirty and DirtyCount disagree")
	}
	return d.c.Hits, d.c.Misses, d.c.ValidLines()
}

func (d dataLevel) dirty() []arch.LineAddr { return d.c.AppendDirty(nil) }

// tagLevel keeps each line's bytes in a stand-in data way and checks that
// every Ref it is handed links to it. A Ref's own state is the line's state.
type tagLevel struct {
	t     *Tags
	links map[arch.LineAddr]*Line
}

// view reads a Ref as a Line, failing on a wrong link.
func (tl tagLevel) view(a arch.LineAddr, r Ref) Line {
	if r.Line != tl.links[a] {
		panic(fmt.Sprintf("line %d links to the wrong data way", a))
	}
	return Line{State: r.State, Data: r.Line.Data}
}

func (tl tagLevel) lookup(a arch.LineAddr) (Line, bool) {
	if r := tl.t.Lookup(a); r != nil {
		return tl.view(a, *r), true
	}
	return Line{}, false
}

// probe returns a scratch handle; changes made through it are applied to
// the Ref and its data way by the next call to sync.
func (tl tagLevel) probe(a arch.LineAddr) (*Line, bool) {
	r := tl.t.Probe(a)
	if r == nil {
		return nil, false
	}
	l := tl.view(a, *r)
	return &l, true
}

func (tl tagLevel) sync(a arch.LineAddr, l *Line) {
	r := tl.t.Probe(a)
	r.State, r.Line.Data = l.State, l.Data
}

func (tl tagLevel) insert(a arch.LineAddr, l Line, pinned func(arch.LineAddr) bool) (Victim, bool) {
	link := &Line{State: l.State, Data: l.Data}
	slot, r, evicted := tl.t.Insert(a, link)
	if slot != tl.t.Probe(a) || *slot != (Ref{State: l.State, Line: link}) {
		panic("Insert returned the wrong slot")
	}
	var v Victim
	if evicted {
		for va, vl := range tl.links {
			if vl == r.Line {
				v = Victim{Addr: va, Line: Line{State: r.State, Data: vl.Data}}
				delete(tl.links, va)
			}
		}
	}
	tl.links[a] = link
	return v, evicted
}

func (tl tagLevel) invalidate(a arch.LineAddr) (Line, bool) {
	r, found := tl.t.Invalidate(a)
	if !found {
		return Line{}, false
	}
	l := tl.view(a, r)
	delete(tl.links, a)
	return l, true
}

func (tl tagLevel) invalidateAll() int {
	clear(tl.links)
	return tl.t.InvalidateAll()
}

func (tl tagLevel) counts() (uint64, uint64, int) {
	return tl.t.Hits, tl.t.Misses, tl.t.ValidLines()
}

func (tl tagLevel) dirty() []arch.LineAddr {
	var out []arch.LineAddr
	for a := range tl.links {
		if r := tl.t.Probe(a); r.State == Modified {
			out = append(out, a)
		}
	}
	return out
}

// TestArraysMatchReferenceModel drives both level types with random
// Lookup / Probe / InsertPinned / Invalidate / InvalidateAll sequences over
// a small, conflict-heavy geometry and checks every hit, miss, victim,
// state and byte against the reference model. Pins apply to the data level
// only (the tag-only level's Insert takes none).
func TestArraysMatchReferenceModel(t *testing.T) {
	cfg := Config{SizeBytes: 8 * 4 * arch.LineBytes, Ways: 4, HitLatency: 1, Occupancy: 1}
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprint("data/seed", seed), func(t *testing.T) {
			checkAgainstModel(t, seed, cfg, dataLevel{New(sim.NewEngine(), cfg)}, true)
		})
		t.Run(fmt.Sprint("tags/seed", seed), func(t *testing.T) {
			tl := tagLevel{NewTags(sim.NewEngine(), cfg), map[arch.LineAddr]*Line{}}
			checkAgainstModel(t, seed, cfg, tl, false)
		})
	}
}

func checkAgainstModel(t *testing.T, seed int64, cfg Config, lv testLevel, pins bool) {
	rng := rand.New(rand.NewSource(seed))
	m := newModel(cfg)
	for op := 0; op < 4000; op++ {
		a := arch.LineAddr(rng.Intn(96))
		where := fmt.Sprintf("op %d on line %d", op, a)
		switch k := rng.Intn(100); {
		case k < 30:
			want, ok := m.lookup(a)
			if got, hit := lv.lookup(a); hit != ok || got != want {
				t.Fatalf("%s: Lookup = %v %v, model %v %v", where, hit, got.State, ok, want.State)
			}
		case k < 45: // Probe, sometimes changing the state and bytes through the handle
			want, ok := m.lines[a]
			got, hit := lv.probe(a)
			if hit != ok || ok && *got != want {
				t.Fatalf("%s: Probe = %v, model %v %v", where, hit, ok, want.State)
			}
			if ok && rng.Intn(2) == 0 {
				got.State = State(1 + rng.Intn(3))
				got.Data[rng.Intn(arch.LineBytes)] = byte(rng.Intn(256))
				if tl, isTags := lv.(tagLevel); isTags {
					tl.sync(a, got)
				}
				m.lines[a] = *got
			}
		case k < 85:
			l := Line{State: State(1 + rng.Intn(3))}
			l.Data[0], l.Data[63] = byte(a), byte(op)
			if _, present := m.lines[a]; present {
				if !panics(func() { lv.insert(a, l, nil) }) {
					t.Fatalf("%s: double insert did not panic", where)
				}
				continue
			}
			pinned := map[arch.LineAddr]bool{}
			for i := rng.Intn(5); pins && i > 0; i-- {
				pinned[arch.LineAddr(rng.Intn(96))] = true
			}
			isPinned := func(x arch.LineAddr) bool { return pinned[x] }
			want, ok := m.insert(a, l, pinned)
			if !ok {
				if !panics(func() { lv.insert(a, l, isPinned) }) {
					t.Fatalf("%s: insert into an all-pinned set did not panic", where)
				}
				continue
			}
			victim, evicted := lv.insert(a, l, isPinned)
			if evicted != (want.Addr != noLine) || evicted && victim != want {
				t.Fatalf("%s: victim = %v %d, model %d", where, evicted, victim.Addr, want.Addr)
			}
		case k < 99:
			want, ok := m.invalidate(a)
			if got, found := lv.invalidate(a); found != ok || got != want {
				t.Fatalf("%s: Invalidate = %v %v, model %v %v", where, found, got.State, ok, want.State)
			}
		default:
			if got := lv.invalidateAll(); got != len(m.lines) {
				t.Fatalf("%s: InvalidateAll = %d, model %d", where, got, len(m.lines))
			}
			clear(m.lines)
			clear(m.recency)
		}
		hits, misses, valid := lv.counts()
		if hits != m.hits || misses != m.misses || valid != len(m.lines) {
			t.Fatalf("%s: hits/misses/valid = %d/%d/%d, model %d/%d/%d",
				where, hits, misses, valid, m.hits, m.misses, len(m.lines))
		}
		dirty := lv.dirty()
		slices.Sort(dirty)
		if want := m.dirty(); !slices.Equal(dirty, want) {
			t.Fatalf("%s: dirty = %v, model %v", where, dirty, want)
		}
	}
}
