// Package network models the machine's interconnect: a 2-D torus with
// virtual cut-through routing and the Table 3 timing (message transfer time
// 30 ns + 8 ns per hop), with contention modeled on every directed link a
// message traverses. Every inter-node message is tagged with a traffic
// class so the Figure 9 breakdown can be regenerated.
//
// The fabric can be made unreliable by attaching a FaultPlan (faultplan.go);
// the Transport layer (transport.go) then restores reliable, exactly-once,
// in-order delivery on top of it. With no plan attached both layers are
// exact no-ops: same events, same timing, same statistics as the perfect
// torus.
package network

import (
	"fmt"

	"revive/internal/arch"
	"revive/internal/sim"
	"revive/internal/stats"
	"revive/internal/trace"
)

// Sizes of the messages exchanged by directory controllers. A control
// message is a routing header plus address and type; a data message adds a
// 64-byte line payload. Parity updates carry a full line of XOR delta (or
// the new data itself under mirroring).
const (
	ControlBytes = 16
	DataBytes    = ControlBytes + arch.LineBytes // 80
)

// Config carries the interconnect parameters.
type Config struct {
	DimX, DimY int      // torus dimensions (4x4 for 16 nodes)
	Base       sim.Time // fixed per-message overhead (30 ns)
	PerHop     sim.Time // per-hop latency (8 ns)
	// PicosPerByte is the link serialization time in picoseconds per
	// byte. 160 ps/B models ~6.4 GB/s links; an 80-byte data message
	// occupies each traversed link for ~12 ns.
	PicosPerByte int
}

// Validate rejects configurations that would silently mis-time the fabric:
// a non-positive serialization rate makes every message free, and
// non-positive dimensions collapse the torus.
func (c Config) Validate() error {
	if c.DimX <= 0 || c.DimY <= 0 {
		return fmt.Errorf("network: invalid torus dimensions %dx%d (both must be positive)", c.DimX, c.DimY)
	}
	if c.PicosPerByte <= 0 {
		return fmt.Errorf("network: PicosPerByte = %d; link serialization must be positive (Table 3 uses 160 ps/B)", c.PicosPerByte)
	}
	if c.Base < 0 || c.PerHop < 0 {
		return fmt.Errorf("network: negative latency (base %d, per-hop %d)", c.Base, c.PerHop)
	}
	return nil
}

// DefaultConfig returns the paper's Table 3 network parameters.
func DefaultConfig() Config {
	return Config{DimX: 4, DimY: 4, Base: 30, PerHop: 8, PicosPerByte: 160}
}

// Message is one inter-node transfer. Deliver runs at the destination at
// arrival time. Frame and DeliverFrame are set by the reliable transport:
// when present, the fault plan may corrupt the frame in flight and delivery
// invokes DeliverFrame with the (possibly corrupted) frame and the message
// instead of Deliver.
type Message struct {
	Src, Dst arch.NodeID
	Bytes    int
	Class    stats.Class
	Deliver  func()

	Frame        *Frame
	DeliverFrame func(Frame, Message)
}

// frameCopy is one framed copy in flight: the frame as it left the fabric
// and its message, with fire bound once (DESIGN §4i). Frames exist only
// under a fault plan, which keeps the engine serial, so one free list per
// network serves every node.
type frameCopy struct {
	n      *Network
	f      Frame
	m      Message
	fireFn func()
}

// fire hands the copy to its receiver, returning the record to the pool
// first so a receiver that sends (an ack) reuses it.
func (c *frameCopy) fire() {
	f, m := c.f, c.m
	c.m = Message{}
	c.n.copyFree = append(c.n.copyFree, c)
	m.DeliverFrame(f, m)
}

// delivery returns the callback to run at the destination. A framed
// message snapshots its frame into a pooled copy record, so a later
// corruption or retransmission cannot change what this copy delivers.
func (n *Network) delivery(m Message) func() {
	if m.DeliverFrame == nil {
		return m.Deliver
	}
	var c *frameCopy
	if k := len(n.copyFree); k > 0 {
		c = n.copyFree[k-1]
		n.copyFree[k-1] = nil
		n.copyFree = n.copyFree[:k-1]
	} else {
		c = &frameCopy{n: n}
		c.fireFn = c.fire
	}
	c.f, c.m = *m.Frame, m
	c.m.Frame = nil
	return c.fireFn
}

// Fabric is the send interface the controllers hold: either the raw
// Network or the reliable Transport wrapped around it.
type Fabric interface {
	Send(Message)
	Nodes() int
}

// direction indexes the four outgoing links of a router.
type direction int

const (
	dirXPlus direction = iota
	dirXMinus
	dirYPlus
	dirYMinus
	numDirs
)

// hop is one traversed link: the node whose outgoing link in direction dir
// the message crosses next.
type hop struct {
	node arch.NodeID
	dir  direction
}

// Network is the torus fabric. Routing, link reservation and statistics
// are not safe for concurrent use; the engine's one event loop is their
// only user.
type Network struct {
	engine *sim.Engine
	cfg    Config
	stats  *stats.Stats
	// links[node][dir] is the outgoing link of node in direction dir.
	links [][numDirs]*sim.Resource
	plan  *FaultPlan
	// pathBuf is the reusable hop buffer buildPath fills. Routes are
	// consumed synchronously inside route/pickRoute and never retained,
	// and the engine is single-threaded, so one scratch slice serves
	// every send without allocating.
	pathBuf []hop
	// copyFree is the free list of framed copies in flight.
	copyFree []*frameCopy
	// Messages counts total messages sent (including node-local, which
	// bypass the fabric).
	Messages uint64
	// FlitHops accumulates bytes×hops for utilization reporting.
	FlitHops uint64
}

// New builds the torus. st may be nil to disable accounting. The
// configuration is validated here so a mis-built machine fails fast
// instead of silently mis-timing every message.
func New(engine *sim.Engine, cfg Config, st *stats.Stats) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.DimX * cfg.DimY
	net := &Network{engine: engine, cfg: cfg, stats: st, links: make([][numDirs]*sim.Resource, n)}
	for i := range net.links {
		for d := direction(0); d < numDirs; d++ {
			net.links[i][d] = sim.NewResource(engine)
		}
	}
	return net, nil
}

// MustNew is New for static configurations known to be valid (tests,
// assembly code paths that already validated the config).
func MustNew(engine *sim.Engine, cfg Config, st *stats.Stats) *Network {
	net, err := New(engine, cfg, st)
	if err != nil {
		panic(err)
	}
	return net
}

// Nodes returns the number of nodes in the fabric.
func (n *Network) Nodes() int { return n.cfg.DimX * n.cfg.DimY }

// SetPlan attaches a fault plan (nil detaches). The reliable transport
// checks the same plan to decide whether framing is needed.
func (n *Network) SetPlan(p *FaultPlan) { n.plan = p }

// Plan returns the attached fault plan (possibly nil).
func (n *Network) Plan() *FaultPlan { return n.plan }

// RepairNode clears every dead link and router kill touching node in the
// attached plan; see FaultPlan.RepairNode.
func (n *Network) RepairNode(node arch.NodeID) { n.plan.RepairNode(node) }

func (n *Network) coord(id arch.NodeID) (x, y int) {
	return int(id) % n.cfg.DimX, int(id) / n.cfg.DimX
}

func (n *Network) nodeAt(x, y int) arch.NodeID {
	return arch.NodeID(y*n.cfg.DimX + x)
}

// forwardDist is the hop count going in the +1 direction from a to b on a
// ring of size dim.
func forwardDist(a, b, dim int) int {
	return (b - a + dim) % dim
}

// variant names one of the minimal-or-detour route shapes the router can
// fall back to when links die: the dimension order and, per dimension,
// whether to take the shortest ring direction or go the longer way around.
type variant struct {
	yFirst       bool
	xLong, yLong bool
}

// routeVariants is the failover preference order. The first entry is the
// default dimension-order route (X first, shortest way in both rings) and
// is byte-identical to the perfect fabric's routing; later entries are
// tried only when an earlier one crosses a dead link or router.
var routeVariants = []variant{
	{false, false, false}, // X-first, both shortest: the default route
	{true, false, false},  // Y-first minimal: avoids the default's first links
	{false, true, false},  // longer way around the X ring
	{false, false, true},  // longer way around the Y ring
	{true, true, false},
	{true, false, true},
	{false, true, true},
	{true, true, true},
}

// ringWalk appends the hops crossing one ring dimension. ringDir gives the
// per-hop direction pair (plus, minus) of the dimension.
func (n *Network) ringWalk(path []hop, x, y *int, target, dim int, xDim, long bool) []hop {
	cur := *x
	if !xDim {
		cur = *y
	}
	if cur == target {
		return path
	}
	fwd := forwardDist(cur, target, dim)
	bwd := forwardDist(target, cur, dim)
	plus := fwd <= bwd // the shortest-way tie-break of the perfect router
	if long {
		plus = !plus
	}
	steps := fwd
	if !plus {
		steps = bwd
	}
	for i := 0; i < steps; i++ {
		var d direction
		switch {
		case xDim && plus:
			d = dirXPlus
		case xDim:
			d = dirXMinus
		case plus:
			d = dirYPlus
		default:
			d = dirYMinus
		}
		path = append(path, hop{n.nodeAt(*x, *y), d})
		if xDim {
			if plus {
				*x = (*x + 1) % dim
			} else {
				*x = (*x - 1 + dim) % dim
			}
		} else {
			if plus {
				*y = (*y + 1) % dim
			} else {
				*y = (*y - 1 + dim) % dim
			}
		}
	}
	return path
}

// buildPath returns the full hop list from src to dst under a route
// variant. Variant 0 reproduces the default dimension-order route exactly.
func (n *Network) buildPath(src, dst arch.NodeID, v variant) []hop {
	x, y := n.coord(src)
	tx, ty := n.coord(dst)
	path := n.pathBuf[:0]
	if v.yFirst {
		path = n.ringWalk(path, &x, &y, ty, n.cfg.DimY, false, v.yLong)
		path = n.ringWalk(path, &x, &y, tx, n.cfg.DimX, true, v.xLong)
	} else {
		path = n.ringWalk(path, &x, &y, tx, n.cfg.DimX, true, v.xLong)
		path = n.ringWalk(path, &x, &y, ty, n.cfg.DimY, false, v.yLong)
	}
	n.pathBuf = path
	return path
}

// pathAlive reports whether every link and every forwarding router of the
// path is alive at time now.
func (n *Network) pathAlive(now sim.Time, path []hop) bool {
	for i, h := range path {
		if i > 0 && n.plan.routerDead(now, h.node) {
			return false // dead intermediate router cannot forward
		}
		next := n.nextOf(h)
		if n.plan.linkDead(now, h.node, next) {
			return false
		}
	}
	return true
}

// nextOf returns the node a hop's link leads to.
func (n *Network) nextOf(h hop) arch.NodeID {
	x, y := n.coord(h.node)
	switch h.dir {
	case dirXPlus:
		x = (x + 1) % n.cfg.DimX
	case dirXMinus:
		x = (x - 1 + n.cfg.DimX) % n.cfg.DimX
	case dirYPlus:
		y = (y + 1) % n.cfg.DimY
	default:
		y = (y - 1 + n.cfg.DimY) % n.cfg.DimY
	}
	return n.nodeAt(x, y)
}

// pickRoute selects the first alive route variant. failover reports that a
// non-default variant was used; ok is false when no variant survives (the
// destination is unreachable right now).
func (n *Network) pickRoute(src, dst arch.NodeID) (path []hop, failover, ok bool) {
	if n.plan.Empty() {
		return n.buildPath(src, dst, routeVariants[0]), false, true
	}
	now := n.engine.Now()
	if n.plan.routerDead(now, src) || n.plan.routerDead(now, dst) {
		return nil, false, false
	}
	for i, v := range routeVariants {
		p := n.buildPath(src, dst, v)
		if len(p) == 0 {
			continue // degenerate variant (zero distance in a dimension)
		}
		if n.pathAlive(now, p) {
			return p, i > 0, true
		}
	}
	return nil, false, false
}

// Reachable reports whether a message from a to b could currently be
// routed (some variant alive, both routers alive). On a perfect fabric it
// is always true.
func (n *Network) Reachable(a, b arch.NodeID) bool {
	if a == b {
		return true
	}
	_, _, ok := n.pickRoute(a, b)
	return ok
}

// Hops returns the dimension-order route length between two nodes.
func (n *Network) Hops(a, b arch.NodeID) int {
	ax, ay := n.coord(a)
	bx, by := n.coord(b)
	return min(forwardDist(ax, bx, n.cfg.DimX), forwardDist(bx, ax, n.cfg.DimX)) +
		min(forwardDist(ay, by, n.cfg.DimY), forwardDist(by, ay, n.cfg.DimY))
}

// Send routes the message and schedules its delivery. A node-local message
// (Src == Dst) is delivered immediately and generates no fabric traffic and
// no network statistics; callers use the same API for both cases.
//
// With a fault plan attached the message is first judged against the
// plan's rules (drop/corrupt/dup/delay) and routed around dead links; a
// message with no surviving route is silently discarded — masking that is
// the transport layer's job.
func (n *Network) Send(m Message) {
	n.Messages++
	if m.Src == m.Dst {
		n.engine.At(n.engine.Now(), n.delivery(m))
		return
	}
	if n.stats != nil {
		n.stats.Net(m.Class, m.Bytes)
	}
	if n.plan.Empty() {
		n.route(m, 0, false)
		return
	}
	v := n.plan.judge(n.engine.Now(), m.Class)
	if v.corrupt {
		if n.stats != nil {
			n.stats.NetFaultCorrupts++
		}
		if m.Frame != nil {
			f := *m.Frame
			f.flipBit(n.plan.corruptBit())
			m.Frame = &f
		} else {
			// A raw message cannot carry a detectable flip; the link-level
			// checksum of a real fabric discards it.
			v.drop = true
		}
	}
	if v.dup {
		if n.stats != nil {
			n.stats.NetFaultDups++
		}
		n.route(m, v.delay, false)
	}
	if v.delay > 0 && n.stats != nil {
		n.stats.NetFaultDelays++
	}
	if v.drop {
		if n.stats != nil {
			n.stats.NetFaultDrops++
			n.stats.Trace.Instant(trace.NetDrop, int(m.Src), uint64(m.Dst))
		}
		n.route(m, v.delay, true)
		return
	}
	n.route(m, v.delay, false)
}

// route reserves the links of a chosen path and schedules delivery.
// discard models a fabric drop: the message occupies its links but never
// delivers (the loss happens at the receiving interface).
func (n *Network) route(m Message, extra sim.Time, discard bool) {
	path, failover, ok := n.pickRoute(m.Src, m.Dst)
	if !ok {
		if n.stats != nil {
			n.stats.NetRouteDrops++
		}
		return
	}
	if failover && n.stats != nil {
		n.stats.NetRouteFailovers++
		n.stats.Trace.Instant(trace.RouteFailover, int(m.Src), uint64(m.Dst))
	}
	serialization := sim.Time(m.Bytes*n.cfg.PicosPerByte) / 1000
	// Virtual cut-through: the head proceeds hop by hop; each traversed
	// link is occupied for the message's serialization time, and the
	// payload tail arrives one serialization time after the head.
	t := n.engine.Now() + n.cfg.Base + extra
	for _, h := range path {
		start := n.links[h.node][h.dir].ReserveAt(t, serialization)
		t = start + n.cfg.PerHop
		n.FlitHops += uint64(m.Bytes)
	}
	if discard {
		return
	}
	n.engine.At(t+serialization, n.delivery(m))
}

// MinLatency returns the no-contention transfer time between two nodes for
// a message of the given size (Table 3's "30ns + 8ns * # hops" plus
// serialization). Useful for tests and analytic cross-checks.
func (n *Network) MinLatency(a, b arch.NodeID, bytes int) sim.Time {
	if a == b {
		return 0
	}
	ser := sim.Time(bytes*n.cfg.PicosPerByte) / 1000
	return n.cfg.Base + sim.Time(n.Hops(a, b))*n.cfg.PerHop + ser
}

func (n *Network) String() string {
	return fmt.Sprintf("torus %dx%d", n.cfg.DimX, n.cfg.DimY)
}

// TorusShape picks torus dimensions for a node count: the most square
// factoring, wider than tall. Machine assembly uses it whenever the
// configured dimensions do not match the node count.
func TorusShape(nodes int) (x, y int) {
	y = 1
	for i := 2; i*i <= nodes; i++ {
		if nodes%i == 0 {
			y = i
		}
	}
	return nodes / y, y
}

// TorusNeighbors returns the four neighbors (+X, -X, +Y, -Y) of a node on
// a dimX×dimY torus. On small rings some entries may coincide.
func TorusNeighbors(dimX, dimY, id int) [4]int {
	x, y := id%dimX, id/dimX
	return [4]int{
		y*dimX + (x+1)%dimX,
		y*dimX + (x-1+dimX)%dimX,
		((y+1)%dimY)*dimX + x,
		((y-1+dimY)%dimY)*dimX + x,
	}
}
