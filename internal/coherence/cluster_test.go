package coherence

import (
	"testing"

	"revive/internal/arch"
	"revive/internal/cache"
	"revive/internal/mem"
	"revive/internal/network"
	"revive/internal/sim"
	"revive/internal/stats"
)

// cluster is a fully wired multi-node machine for protocol tests: caches,
// directories, memories and network, with no processors — tests drive the
// cache controllers directly.
type cluster struct {
	engine  *sim.Engine
	st      *stats.Stats
	tracker *Tracker
	amap    *arch.AddressMap
	net     *network.Network
	mems    []*mem.Memory
	dirs    []*DirCtrl
	caches  []*CacheCtrl
}

func newCluster(nodes int) *cluster {
	engine := sim.NewEngine()
	st := stats.New()
	tracker := &Tracker{}
	topo := arch.Topology{Nodes: nodes, GroupSize: 2}
	if nodes >= 8 {
		topo.GroupSize = 8
	}
	amap := arch.NewAddressMap(topo)
	netCfg := network.DefaultConfig()
	switch nodes {
	case 2:
		netCfg.DimX, netCfg.DimY = 2, 1
	case 4:
		netCfg.DimX, netCfg.DimY = 2, 2
	case 16:
		netCfg.DimX, netCfg.DimY = 4, 4
	default:
		netCfg.DimX, netCfg.DimY = nodes, 1
	}
	net := network.MustNew(engine, netCfg, st)
	c := &cluster{engine: engine, st: st, tracker: tracker, amap: amap, net: net}
	for n := 0; n < nodes; n++ {
		m := mem.New(engine.Context(0), mem.DefaultConfig())
		c.mems = append(c.mems, m)
		c.dirs = append(c.dirs, NewDirCtrl(engine.Context(0), arch.NodeID(n), DefaultDirConfig(),
			m, net, amap, st, tracker))
		c.caches = append(c.caches, NewCacheCtrl(engine.Context(0), arch.NodeID(n),
			cache.L1Default(), cache.L2Default(), DefaultBusConfig(), net, amap, st, tracker))
	}
	for n := 0; n < nodes; n++ {
		c.dirs[n].SetCaches(c.caches)
		c.caches[n].SetDirs(c.dirs)
	}
	return c
}

// run drives the simulation until all events drain; it fails the test if
// in-flight work remains (a lost completion or deadlock).
func (c *cluster) run(t *testing.T) {
	t.Helper()
	c.engine.Run()
	if !c.tracker.Quiescent() {
		t.Fatalf("simulation drained with %d operations still outstanding", c.tracker.Outstanding())
	}
}

// load performs a blocking load and returns a completion flag pointer. A
// hit completes at once: Load returns it and schedules nothing.
func (c *cluster) load(node int, addr arch.Addr) *bool {
	done := new(bool)
	_, *done = c.caches[node].Load(addr, func() { *done = true })
	return done
}

// store performs a store of val.
func (c *cluster) store(node int, addr arch.Addr, val uint64) *bool {
	done := new(bool)
	c.caches[node].Store(addr, val, func() { *done = true })
	return done
}

// memLine reads the functional memory content of a global line.
func (c *cluster) memLine(line arch.LineAddr) arch.Data {
	phys, ok := c.amap.LookupLine(line)
	if !ok {
		return arch.Data{}
	}
	return c.mems[phys.Node].Peek(phys.MemAddr())
}

// lineWith returns the expected content of a line after an 8-byte store of
// val at byte offset off.
func lineWith(off int, val uint64) arch.Data {
	var d arch.Data
	for i := 0; i < 8; i++ {
		d[(off&^7)+i] = byte(val >> (8 * i))
	}
	return d
}

// addrOnPage builds a global address on a given page and line offset. Pages
// below 1000 are reserved for directed tests.
func addrOnPage(page, lineInPage, byteOff int) arch.Addr {
	return arch.Addr(page)<<arch.PageShift | arch.Addr(lineInPage)<<arch.LineShift | arch.Addr(byteOff)
}
