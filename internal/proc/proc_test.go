package proc

import (
	"testing"

	"revive/internal/arch"
	"revive/internal/cache"
	"revive/internal/coherence"
	"revive/internal/mem"
	"revive/internal/network"
	"revive/internal/sim"
	"revive/internal/stats"
	"revive/internal/workload"
)

// rig is a 2-node machine fragment: enough wiring for processors to run.
type rig struct {
	engine *sim.Engine
	st     *stats.Stats
	caches []*coherence.CacheCtrl
}

func newRig() *rig {
	engine := sim.NewEngine()
	st := stats.New()
	tracker := &coherence.Tracker{}
	topo := arch.Topology{Nodes: 2, GroupSize: 2}
	amap := arch.NewAddressMap(topo)
	netCfg := network.DefaultConfig()
	netCfg.DimX, netCfg.DimY = 2, 1
	net := network.MustNew(engine, netCfg, st)
	var dirs []*coherence.DirCtrl
	var caches []*coherence.CacheCtrl
	for n := 0; n < 2; n++ {
		m := mem.New(engine.Context(0), mem.DefaultConfig())
		dirs = append(dirs, coherence.NewDirCtrl(engine.Context(0), arch.NodeID(n),
			coherence.DefaultDirConfig(), m, net, amap, st, tracker))
		caches = append(caches, coherence.NewCacheCtrl(engine.Context(0), arch.NodeID(n),
			cache.L1Default(), cache.L2Default(), coherence.DefaultBusConfig(),
			net, amap, st, tracker))
	}
	for n := 0; n < 2; n++ {
		dirs[n].SetCaches(caches)
		caches[n].SetDirs(dirs)
	}
	return &rig{engine: engine, st: st, caches: caches}
}

func TestProcRunsStreamToCompletion(t *testing.T) {
	r := newRig()
	ops := []workload.Op{
		{Kind: workload.OpLoad, Addr: 0x10000, Gap: 5},
		{Kind: workload.OpStore, Addr: 0x10008, Gap: 2},
		{Kind: workload.OpLoad, Addr: 0x20000, Gap: 10},
	}
	p := New(r.engine.Context(0), DefaultConfig(), 0, r.caches[0], workload.NewExplicit(ops), r.st)
	finished := false
	p.OnFinish = func() { finished = true }
	p.Start()
	r.engine.Run()
	if !finished || !p.Finished() {
		t.Fatal("processor did not finish")
	}
	if r.st.Instructions != 5+1+2+1+10+1 {
		t.Fatalf("instructions = %d, want 20", r.st.Instructions)
	}
	if r.st.Loads != 2 || r.st.Stores != 1 {
		t.Fatalf("loads/stores = %d/%d", r.st.Loads, r.st.Stores)
	}
}

func TestComputeGapAdvancesTime(t *testing.T) {
	r := newRig()
	// 600 instructions at 6-wide = at least 100 cycles of compute.
	ops := []workload.Op{{Kind: workload.OpLoad, Addr: 0x10000, Gap: 600}}
	p := New(r.engine.Context(0), DefaultConfig(), 0, r.caches[0], workload.NewExplicit(ops), r.st)
	p.Start()
	r.engine.Run()
	if r.engine.Now() < 100 {
		t.Fatalf("finished at %d, want >= 100 (compute time)", r.engine.Now())
	}
}

func TestInterruptParksAtBoundary(t *testing.T) {
	r := newRig()
	var ops []workload.Op
	for i := 0; i < 100; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpLoad,
			Addr: arch.Addr(0x10000 + i*64), Gap: 3})
	}
	p := New(r.engine.Context(0), DefaultConfig(), 0, r.caches[0], workload.NewExplicit(ops), r.st)
	p.Start()
	parked := false
	r.engine.After(50, func() { p.Interrupt(func() { parked = true }) })
	r.engine.Run()
	if !parked {
		t.Fatal("processor never parked")
	}
	if p.Finished() {
		t.Fatal("processor finished while parked")
	}
	// Resume completes the stream.
	p.Resume()
	r.engine.Run()
	if !p.Finished() {
		t.Fatal("processor did not finish after resume")
	}
}

func TestInterruptOnFinishedProcIsImmediate(t *testing.T) {
	r := newRig()
	p := New(r.engine.Context(0), DefaultConfig(), 0, r.caches[0], workload.NewExplicit(nil), r.st)
	p.Start()
	r.engine.Run()
	called := false
	p.Interrupt(func() { called = true })
	if !called {
		t.Fatal("interrupt of finished proc not immediate")
	}
}

func TestContextSnapshotRestartsStream(t *testing.T) {
	r := newRig()
	var ops []workload.Op
	for i := 0; i < 50; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpLoad,
			Addr: arch.Addr(0x10000 + i*64)})
	}
	p := New(r.engine.Context(0), DefaultConfig(), 0, r.caches[0], workload.NewExplicit(ops), r.st)
	p.Start() // snapshot taken at start (position 0)
	r.engine.Run()
	if !p.Finished() {
		t.Fatal("did not finish")
	}
	// Rollback to the initial context and re-run.
	p.RestoreContext(p.ContextSnapshot())
	if p.Finished() {
		t.Fatal("finished flag survived restore")
	}
	loads := r.st.Loads
	p.Start()
	r.engine.Run()
	if r.st.Loads != loads+50 {
		t.Fatalf("replayed %d loads, want 50", r.st.Loads-loads)
	}
}

func TestStoreValuesAreUnique(t *testing.T) {
	r := newRig()
	var ops []workload.Op
	for i := 0; i < 20; i++ {
		ops = append(ops, workload.Op{Kind: workload.OpStore,
			Addr: arch.Addr(0x10000 + i*8)})
	}
	p := New(r.engine.Context(0), DefaultConfig(), 0, r.caches[0], workload.NewExplicit(ops), r.st)
	p.Start()
	r.engine.Run()
	// All 20 stores landed on distinct 8-byte slots of distinct values:
	// the line contents must be pairwise distinct per slot.
	line := r.caches[0].Line(arch.Addr(0x10000).Line())
	if line == nil {
		t.Fatal("stored line not cached")
	}
	seen := map[uint64]bool{}
	for off := 0; off < 64; off += 8 {
		var v uint64
		for b := 0; b < 8; b++ {
			v |= uint64(line.Data[off+b]) << (8 * b)
		}
		if v == 0 || seen[v] {
			t.Fatalf("slot %d value %x duplicated or zero", off, v)
		}
		seen[v] = true
	}
}

// residentRig returns a rig whose node 0 holds lines writable in L1: one
// store to each, drained. Each address is the start of its line.
func residentRig(t *testing.T, lines int) (*rig, []arch.Addr) {
	t.Helper()
	r := newRig()
	addrs := make([]arch.Addr, lines)
	for i := range addrs {
		addrs[i] = arch.Addr(0x10000 + i*arch.LineBytes)
		r.caches[0].Store(addrs[i], uint64(i+1), func() {})
		r.engine.Run()
	}
	if r.caches[0].PendingOps() != 0 {
		t.Fatal("warm-up left operations in flight")
	}
	return r, addrs
}

// A memory reference that stays in the node costs one event: the issue.
// A hit's completion and a store's acceptance fold into the processor's
// next issue, and a store into a writable line retires inline.
func TestResidentReferencesCostOneEventEach(t *testing.T) {
	const n = 400
	for _, kind := range []workload.OpKind{workload.OpLoad, workload.OpStore} {
		r, addrs := residentRig(t, 32)
		ops := make([]workload.Op, n)
		for i := range ops {
			ops[i] = workload.Op{Kind: kind, Addr: addrs[i%len(addrs)] + 8, Gap: 1 + i%6}
		}
		p := New(r.engine.Context(0), DefaultConfig(), 0, r.caches[0], workload.NewExplicit(ops), r.st)
		before, misses := r.engine.Steps(), r.st.L1Misses
		p.Start()
		r.engine.Run()
		if !p.Finished() {
			t.Fatalf("kind %v: processor did not finish", kind)
		}
		if r.st.L1Misses != misses {
			t.Fatalf("kind %v: %d L1 misses on resident lines", kind, r.st.L1Misses-misses)
		}
		// One issue event per reference, plus the finishing step.
		if events := r.engine.Steps() - before; events > n+2 {
			t.Fatalf("kind %v: %d references took %d events, want <= %d", kind, n, events, n+2)
		}
	}
}

// An interrupt that arrives after a hit has drawn the next operation, but
// before that operation issues, is taken at the next boundary: the drawn
// operation issues first, so the saved context is exact and a rollback to
// it replays every later operation exactly once.
func TestInterruptInFoldedWindowParksAfterDrawnOp(t *testing.T) {
	const n, k = 60, 10
	r, addrs := residentRig(t, 16)
	ops := make([]workload.Op, n)
	for i := range ops {
		// Gap 12: two cycles of compute; an L1 hit takes two more.
		ops[i] = workload.Op{Kind: workload.OpLoad, Addr: addrs[i%len(addrs)], Gap: 12}
	}
	stream := workload.NewExplicit(ops)
	p := New(r.engine.Context(0), DefaultConfig(), 0, r.caches[0], stream, r.st)
	s, loads := r.engine.Now(), r.st.Loads
	p.Start()
	// Op j issues at s+2+4j and completes at s+4+4j, and that completion
	// was drawn at the issue. s+3+4k is inside op k's folded window.
	parked := false
	r.engine.At(s+3+4*k, func() {
		p.Interrupt(func() {
			parked = true
			if pos, issued := stream.Snapshot().(int), r.st.Loads-loads; uint64(pos) != issued {
				t.Errorf("parked with %d ops drawn but %d issued", pos, issued)
			}
		})
	})
	r.engine.Run()
	if !parked || p.Finished() {
		t.Fatalf("parked=%v finished=%v, want parked mid-stream", parked, p.Finished())
	}
	if issued := r.st.Loads - loads; issued != k+2 {
		t.Fatalf("parked after %d ops, want %d (the drawn op issues first)", issued, k+2)
	}
	p.Resume() // commit: the parked position is the saved context
	r.engine.Run()
	if !p.Finished() || r.st.Loads-loads != n {
		t.Fatalf("first pass issued %d ops, want %d", r.st.Loads-loads, n)
	}
	p.RestoreContext(p.ContextSnapshot())
	p.Start()
	r.engine.Run()
	if got, want := r.st.Loads-loads, uint64(n+n-(k+2)); got != want {
		t.Fatalf("after rollback issued %d ops in total, want %d", got, want)
	}
	if got, want := r.st.Instructions, uint64(n+n-(k+2))*13; got != want {
		t.Fatalf("instructions = %d, want %d (each draw counted once)", got, want)
	}
}
