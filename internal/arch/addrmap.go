package arch

import "sort"

// Placement records where a global page lives: its home node and the
// physical frame assigned within that node's memory.
type Placement struct {
	Home  NodeID
	Frame Frame
}

// AddressMap implements the paper's first-touch page placement: the first
// node to access a page becomes its home, and the page is assigned the next
// free data frame of that node (skipping frames reserved for parity by the
// topology's RAID-5 rotation). The map also allocates frames directly,
// which the ReVive log uses for its log pages.
//
// The map is the one piece of model state shared by every node. It takes
// no lock: every access comes from the engine's one event-loop goroutine.
type AddressMap struct {
	topo      Topology
	pages     map[PageNum]Placement
	nextFrame []Frame // per-node allocation cursor
}

// NewAddressMap returns an empty map for the given topology.
func NewAddressMap(topo Topology) *AddressMap {
	return &AddressMap{
		topo:      topo,
		pages:     make(map[PageNum]Placement),
		nextFrame: make([]Frame, topo.Nodes),
	}
}

// Topology returns the topology the map was built for.
func (m *AddressMap) Topology() Topology { return m.topo }

// Touch returns the placement of page p, assigning it to toucher's local
// memory if this is the first access (first-touch allocation).
func (m *AddressMap) Touch(p PageNum, toucher NodeID) Placement {
	if pl, ok := m.pages[p]; ok {
		return pl
	}
	home := m.topo.DataHome(toucher)
	pl := Placement{Home: home, Frame: m.AllocFrame(home)}
	m.pages[p] = pl
	return pl
}

// Lookup returns the placement of page p without allocating.
func (m *AddressMap) Lookup(p PageNum) (Placement, bool) {
	pl, ok := m.pages[p]
	return pl, ok
}

// LookupLine translates a global line address to its physical location
// without allocating.
func (m *AddressMap) LookupLine(l LineAddr) (PhysLine, bool) {
	pl, ok := m.pages[l.Page()]
	if !ok {
		return PhysLine{}, false
	}
	return PhysLine{Node: pl.Home, Frame: pl.Frame, Off: uint8(l.PageOffset())}, true
}

// TouchLine translates a global line address to its physical location,
// placing the page at toucher on first access.
func (m *AddressMap) TouchLine(l LineAddr, toucher NodeID) PhysLine {
	pl := m.Touch(l.Page(), toucher)
	return PhysLine{Node: pl.Home, Frame: pl.Frame, Off: uint8(l.PageOffset())}
}

// AllocFrame hands out the next data frame of node n, skipping
// parity-reserved frames.
func (m *AddressMap) AllocFrame(n NodeID) Frame {
	if !m.topo.HasDataFrames(n) {
		panic("arch: frame allocation on a dedicated parity node")
	}
	f := m.nextFrame[n]
	for m.topo.IsParityFrame(n, f) {
		f++
	}
	m.nextFrame[n] = f + 1
	return f
}

// FramesUsed reports how far node n's frame allocation has advanced
// (including skipped parity frames), a proxy for its memory footprint.
func (m *AddressMap) FramesUsed(n NodeID) Frame {
	return m.nextFrame[n]
}

// PagesHomedAt returns the global pages whose home is node n, sorted by
// page number. Recovery uses this to enumerate the data pages lost with a
// node; the sort keeps that enumeration — and hence recovery work order,
// stats and traces — independent of Go's randomized map-iteration order.
func (m *AddressMap) PagesHomedAt(n NodeID) []PageNum {
	var out []PageNum
	for p, pl := range m.pages {
		if pl.Home == n {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Rehome moves page p to a new home node and frame. Recovery uses this to
// relocate the pages of a permanently lost node onto survivors.
func (m *AddressMap) Rehome(p PageNum, to NodeID) Placement {
	pl := Placement{Home: to, Frame: m.AllocFrame(to)}
	m.pages[p] = pl
	return pl
}
