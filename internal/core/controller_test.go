package core

import (
	"testing"
	"testing/quick"

	"revive/internal/arch"
	"revive/internal/coherence"
	"revive/internal/mem"
	"revive/internal/network"
	"revive/internal/sim"
	"revive/internal/stats"
)

// newCtrlRig wires a minimal 8-node machine fragment (no caches, no procs)
// sufficient to exercise the controller's ledger and log paths directly.
func newCtrlRig() (*sim.Engine, []*Controller, *arch.AddressMap) {
	engine := sim.NewEngine()
	st := stats.New()
	tracker := &coherence.Tracker{}
	topo := arch.Topology{Nodes: 8, GroupSize: 8}
	amap := arch.NewAddressMap(topo)
	netCfg := network.DefaultConfig()
	netCfg.DimX, netCfg.DimY = 4, 2
	net := network.MustNew(engine, netCfg, st)
	var dirs []*coherence.DirCtrl
	for n := 0; n < 8; n++ {
		m := mem.New(engine.Context(0), mem.DefaultConfig())
		dirs = append(dirs, coherence.NewDirCtrl(engine.Context(0), arch.NodeID(n),
			coherence.DefaultDirConfig(), m, net, amap, st, tracker))
	}
	var ctrls []*Controller
	for n := 0; n < 8; n++ {
		ctrls = append(ctrls, NewController(engine.Context(0), arch.NodeID(n), topo, amap,
			dirs, net, st, tracker))
	}
	for n := 0; n < 8; n++ {
		ctrls[n].Wire(ctrls)
		ctrls[n].InitEpoch()
	}
	return engine, ctrls, amap
}

func TestLedgerSettlesAfterWrite(t *testing.T) {
	engine, ctrls, amap := newCtrlRig()
	c := ctrls[2]
	line := arch.PageNum(100).FirstLine()
	phys := amap.TouchLine(line, 2)
	var data arch.Data
	data[0] = 0xAA
	acked, released := false, false
	c.Write(line, phys, data, false, func() { acked = true }, func() { released = true })
	engine.Run()
	if !acked || !released {
		t.Fatal("write sequence incomplete")
	}
	// All parity deltas applied: the ledger is empty.
	for n, ctrl := range ctrls {
		if ctrl.PendingDebts() != 0 {
			t.Fatalf("node %d has %d unsettled debts after quiescence", n, ctrl.PendingDebts())
		}
	}
}

func TestLedgerNonEmptyMidFlight(t *testing.T) {
	engine, ctrls, amap := newCtrlRig()
	c := ctrls[2]
	line := arch.PageNum(100).FirstLine()
	phys := amap.TouchLine(line, 2)
	var data arch.Data
	data[7] = 1
	c.Write(line, phys, data, false, func() {}, func() {})
	// Step until the first memory poke accrues debt; the parity round
	// that would settle it is still in flight.
	engine.RunWhile(func() bool { return c.PendingDebts() == 0 })
	if c.PendingDebts() == 0 {
		t.Fatal("no debt ever recorded during the write sequence")
	}
	// Reconciliation settles the ledger and restores the invariant.
	engine.Reset()
	for _, ctrl := range ctrls {
		ctrl.ReconcileParity()
	}
	if c.PendingDebts() != 0 {
		t.Fatal("reconciliation left debts")
	}
	// Parity invariant by hand: the parity line equals the XOR of its
	// whole stripe (which also contains other nodes' log frames at the
	// same frame index).
	topo := arch.Topology{Nodes: 8, GroupSize: 8}
	par := topo.ParityOf(phys)
	var want arch.Data
	for _, q := range topo.DataLinesOf(par) {
		d := ctrls[q.Node].dirs[q.Node].Mem().Peek(q.MemAddr())
		want.XOR(&d)
	}
	got := ctrls[par.Node].dirs[par.Node].Mem().Peek(par.MemAddr())
	if got != want {
		t.Fatalf("parity %x != stripe XOR %x after reconcile", got[:8], want[:8])
	}
}

func TestWriteIntentLogsOnce(t *testing.T) {
	engine, ctrls, amap := newCtrlRig()
	c := ctrls[3]
	line := arch.PageNum(5).FirstLine() + 9
	phys := amap.TouchLine(line, 3)
	for i := 0; i < 3; i++ {
		done := false
		c.WriteIntent(line, phys, func() { done = true })
		engine.Run()
		if !done {
			t.Fatal("write intent never released")
		}
	}
	// Initial marker + exactly one data entry.
	if got := c.Log().Entries(); got != 2 {
		t.Fatalf("log entries = %d, want 2 (marker + one entry)", got)
	}
	if c.Events.RDXNotLogged != 1 {
		t.Fatalf("RDXNotLogged = %d, want 1", c.Events.RDXNotLogged)
	}
}

func TestCommitEpochClearsLBits(t *testing.T) {
	engine, ctrls, amap := newCtrlRig()
	c := ctrls[3]
	line := arch.PageNum(5).FirstLine()
	phys := amap.TouchLine(line, 3)
	c.WriteIntent(line, phys, func() {})
	engine.Run()
	if !c.Logged(line) {
		t.Fatal("L bit not set")
	}
	c.CommitEpoch(1, 2)
	if c.Logged(line) {
		t.Fatal("L bit survived the gang-clear")
	}
}

// Property: the ledger's XOR algebra — any interleaving of accruals and
// matching pay-downs nets to zero; unmatched accruals remain.
func TestPropertyLedgerAlgebra(t *testing.T) {
	_, ctrls, amap := newCtrlRig()
	c := ctrls[1]
	topo := arch.Topology{Nodes: 8, GroupSize: 8}
	f := func(writes []struct {
		Page uint8
		Off  uint8
		Val  uint8
	}) bool {
		type rec struct {
			target arch.PhysLine
			delta  arch.Data
		}
		var open []rec
		for _, w := range writes {
			l := arch.PageNum(200+uint64(w.Page)%8).FirstLine() + arch.LineAddr(w.Off%64)
			phys := amap.TouchLine(l, 1)
			if phys.Node != 1 {
				continue
			}
			m := c.dirs[1].Mem()
			old := m.Peek(phys.MemAddr())
			var newData arch.Data
			newData[0] = w.Val
			c.accrue(phys, old, newData)
			m.Poke(phys.MemAddr(), newData)
			delta := old
			delta.XOR(&newData)
			open = append(open, rec{target: topo.ParityOf(phys), delta: delta})
		}
		// Pay every recorded delta down: the ledger must empty.
		for _, r := range open {
			c.payDebt(r.target, r.delta)
		}
		return c.PendingDebts() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWritePathZeroAlloc pins the pooled protocol sequences (DESIGN §4i):
// once warm, every write-path flow — a logged write-back (data write plus
// its parity round), a not-logged one (log append, both parity round trips,
// then the data write), a write intent (log append alone), and the
// inline-log backend's overflow path — runs on recycled records and bound
// continuations and allocates nothing.
func TestWritePathZeroAlloc(t *testing.T) {
	for _, strategy := range []string{"revive", "inline-log"} {
		t.Run(strategy, func(t *testing.T) {
			engine, ctrls, amap := newCtrlRig()
			s, err := NewStrategy(strategy)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range ctrls {
				c.SetStrategy(s)
			}
			c := ctrls[2]
			line := arch.PageNum(100).FirstLine()
			phys := amap.TouchLine(line, 2)
			acks, releases := 0, 0
			ack, release := func() { acks++ }, func() { releases++ }
			// Alternating complements differ in every word, so an
			// inline-log write-back never fits the line and always
			// overflows to the out-of-line log.
			var data arch.Data
			for i := range data {
				data[i] = 0xA5
			}
			epoch := uint64(1)
			newEpoch := func() {
				// Clear the L bits and reclaim the log, so the log's
				// frames and their lines are reused, not grown. (The
				// strategy's commit alone: Controller.CommitEpoch also
				// empties the free lists this pin measures.)
				epoch++
				s.CommitEpoch(c, epoch, 2)
			}
			flows := []struct {
				name  string
				event *uint64 // the Table 1 event class the flow counts as
				op    func()
			}{
				{"logged write-back", &c.Events.WBLogged, func() {
					data[0] = ^data[0]
					c.Write(line, phys, data, false, ack, release)
				}},
				{"not-logged write-back", &c.Events.WBNotLogged, func() {
					newEpoch()
					for i := range data {
						data[i] = ^data[i]
					}
					c.Write(line, phys, data, false, ack, release)
				}},
				{"write intent", &c.Events.RDXNotLogged, func() {
					newEpoch()
					c.WriteIntent(line, phys, release)
				}},
			}
			for _, f := range flows {
				if strategy == "inline-log" && f.name == "write intent" {
					continue // inline-log has no eager-log step
				}
				step := func() {
					f.op()
					engine.Run()
				}
				// Warm up through a full timing-wheel revolution so every
				// bucket the steady state touches has its backing array.
				for i := 0; i < 8192; i++ {
					step()
				}
				events, before := *f.event, releases
				if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
					t.Errorf("%s allocates %.1f per op, want 0", f.name, allocs)
				}
				if *f.event-events != 1001 || releases-before != 1001 {
					t.Fatalf("%s: %d events and %d releases over 1001 runs",
						f.name, *f.event-events, releases-before)
				}
			}
			if acks == 0 || c.PendingDebts() != 0 {
				t.Fatalf("acks=%d pending debts=%d after quiescence", acks, c.PendingDebts())
			}
			if strategy == "inline-log" && c.Events.InlineFits != 0 {
				t.Fatalf("%d write-backs fit the line; the pin must take the overflow path", c.Events.InlineFits)
			}
		})
	}
}
