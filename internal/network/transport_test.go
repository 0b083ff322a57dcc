package network

import (
	"hash/crc32"
	"testing"

	"revive/internal/arch"
	"revive/internal/sim"
	"revive/internal/stats"
)

func newXport() (*sim.Engine, *Network, *Transport, *stats.Stats) {
	e := sim.NewEngine()
	st := stats.New()
	n := MustNew(e, DefaultConfig(), st)
	return e, n, NewTransport(n, DefaultTransportConfig()), st
}

// With no fault plan the transport is a strict passthrough: same timing,
// same message count, no framing bytes, no acks.
func TestTransportEmptyPlanIsZeroCost(t *testing.T) {
	e, n, tr, st := newXport()
	var at sim.Time
	tr.Send(Message{Src: 0, Dst: 1, Bytes: DataBytes, Class: stats.ClassRead,
		Deliver: func() { at = e.Now() }})
	e.Run()
	if want := n.MinLatency(0, 1, DataBytes); at != want {
		t.Fatalf("delivered at %d, want %d (passthrough must not add latency)", at, want)
	}
	if n.Messages != 1 {
		t.Fatalf("Messages = %d, want 1 (no acks, no retransmits)", n.Messages)
	}
	if st.NetBytes[stats.ClassRead] != DataBytes {
		t.Fatalf("wire bytes = %d, want %d (no framing overhead)", st.NetBytes[stats.ClassRead], DataBytes)
	}
	if st.XportAcks != 0 || st.XportRetransmits != 0 {
		t.Fatal("transport machinery engaged without a fault plan")
	}
}

// A dropped frame is retransmitted after the ack timeout and delivered
// exactly once.
func TestTransportRetransmitsDroppedFrame(t *testing.T) {
	e, n, tr, st := newXport()
	// Drop everything sent in the first microsecond; the retransmit at
	// ~1.5 us falls outside the window and goes through.
	n.SetPlan(&FaultPlan{Seed: 1, Rules: []Rule{
		{Op: OpDrop, Prob: 1, Class: AnyClass, From: 0, Until: 1000},
	}})
	delivered := 0
	tr.Send(Message{Src: 0, Dst: 1, Bytes: DataBytes, Class: stats.ClassRead,
		Deliver: func() { delivered++ }})
	e.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want exactly 1", delivered)
	}
	if st.NetFaultDrops == 0 || st.XportRetransmits == 0 {
		t.Fatalf("fault machinery idle: drops=%d retransmits=%d", st.NetFaultDrops, st.XportRetransmits)
	}
	if err := tr.Verify(true); err != nil {
		t.Fatalf("exactly-once audit failed: %v", err)
	}
}

// A corrupted frame fails its CRC at the receiver, is discarded, and the
// retransmission delivers the payload — never a silent wrong delivery.
func TestTransportCRCCatchesCorruption(t *testing.T) {
	e, n, tr, st := newXport()
	n.SetPlan(&FaultPlan{Seed: 2, Rules: []Rule{
		{Op: OpCorrupt, Prob: 1, Class: AnyClass, From: 0, Until: 1000},
	}})
	delivered := 0
	tr.Send(Message{Src: 0, Dst: 1, Bytes: DataBytes, Class: stats.ClassRead,
		Deliver: func() { delivered++ }})
	e.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want exactly 1", delivered)
	}
	if st.NetFaultCorrupts == 0 || st.XportCorruptsCaught == 0 {
		t.Fatalf("corruption not injected or not caught: injected=%d caught=%d",
			st.NetFaultCorrupts, st.XportCorruptsCaught)
	}
	if err := tr.Verify(true); err != nil {
		t.Fatalf("exactly-once audit failed: %v", err)
	}
}

// A duplicated frame is suppressed by the receiver's sequence numbers.
func TestTransportSuppressesDuplicates(t *testing.T) {
	e, n, tr, st := newXport()
	n.SetPlan(&FaultPlan{Seed: 3, Rules: []Rule{
		{Op: OpDup, Prob: 1, Class: AnyClass, From: 0, Until: 1},
	}})
	delivered := 0
	tr.Send(Message{Src: 0, Dst: 1, Bytes: DataBytes, Class: stats.ClassRead,
		Deliver: func() { delivered++ }})
	e.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want exactly 1 (dup not suppressed)", delivered)
	}
	if st.NetFaultDups == 0 || st.XportDupsDropped == 0 {
		t.Fatalf("duplication not injected or not suppressed: injected=%d dropped=%d",
			st.NetFaultDups, st.XportDupsDropped)
	}
	if err := tr.Verify(true); err != nil {
		t.Fatalf("exactly-once audit failed: %v", err)
	}
}

// A delayed (reordered) message is held by the receiver until the gap
// before it fills: application delivery order equals send order.
func TestTransportRestoresSendOrder(t *testing.T) {
	e, n, tr, _ := newXport()
	// Only the first message (sent at t=0) is delayed past the second.
	n.SetPlan(&FaultPlan{Seed: 4, Rules: []Rule{
		{Op: OpDelay, Prob: 1, Class: AnyClass, From: 0, Until: 1, Extra: 500},
	}})
	var order []int
	tr.Send(Message{Src: 0, Dst: 1, Bytes: DataBytes, Class: stats.ClassRead,
		Deliver: func() { order = append(order, 1) }})
	e.After(5, func() {
		tr.Send(Message{Src: 0, Dst: 1, Bytes: DataBytes, Class: stats.ClassRead,
			Deliver: func() { order = append(order, 2) }})
	})
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order %v, want [1 2] (send order restored)", order)
	}
	if err := tr.Verify(true); err != nil {
		t.Fatalf("exactly-once audit failed: %v", err)
	}
}

// A dead directed link is routed around; delivery succeeds with a failover
// and no transport escalation.
func TestTransportLinkKillFailsOver(t *testing.T) {
	e, n, tr, st := newXport()
	n.SetPlan(&FaultPlan{Seed: 5, LinkKills: []LinkKill{{From: 0, To: 1, At: 0}}})
	delivered := 0
	tr.OnUnreachable = func(src, dst arch.NodeID) {
		t.Fatalf("escalated %d->%d; a single dead link must fail over", src, dst)
	}
	tr.Send(Message{Src: 0, Dst: 1, Bytes: DataBytes, Class: stats.ClassRead,
		Deliver: func() { delivered++ }})
	e.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want 1", delivered)
	}
	if st.NetRouteFailovers == 0 {
		t.Fatal("no failover recorded for the dead link")
	}
	if !n.Reachable(0, 1) {
		t.Fatal("Reachable(0,1) = false with three live route variants")
	}
}

// A dead router exhausts the retransmit budget and produces an explicit
// unreachability report — never a hang, never a silent loss.
func TestTransportRouterKillReportsUnreachable(t *testing.T) {
	e, n, tr, st := newXport()
	n.SetPlan(&FaultPlan{Seed: 6, RouterKills: []RouterKill{{Node: 5, At: 0}}})
	var reported []arch.NodeID
	tr.OnUnreachable = func(src, dst arch.NodeID) { reported = append(reported, src, dst) }
	delivered := 0
	tr.Send(Message{Src: 0, Dst: 5, Bytes: DataBytes, Class: stats.ClassRead,
		Deliver: func() { delivered++ }})
	e.Run()
	if delivered != 0 {
		t.Fatalf("delivered through a dead router %d times", delivered)
	}
	if len(reported) != 2 || reported[0] != 0 || reported[1] != 5 {
		t.Fatalf("unreachability report %v, want [0 5]", reported)
	}
	if st.XportUnreachable != 1 {
		t.Fatalf("XportUnreachable = %d, want 1", st.XportUnreachable)
	}
	if tr.Failed() != 1 {
		t.Fatalf("Failed() = %d, want 1 (sender observed the loss)", tr.Failed())
	}
	// The failure was *observed*, so exactly-once still holds.
	if err := tr.Verify(true); err != nil {
		t.Fatalf("audit failed after an observed failure: %v", err)
	}
	if n.Reachable(0, 5) {
		t.Fatal("Reachable(0,5) = true with node 5's router dead")
	}
}

// The deliberately broken fire-and-forget build (acks disabled) loses a
// frame silently; the exactly-once audit must catch it at the final
// quiescent point.
func TestTransportVerifyCatchesDropAckBug(t *testing.T) {
	e, n, tr, _ := newXport()
	n.SetPlan(&FaultPlan{Seed: 7, Rules: []Rule{
		{Op: OpDrop, Prob: 1, Class: AnyClass, From: 0},
	}})
	tr.DisableAcks = true
	tr.Send(Message{Src: 0, Dst: 1, Bytes: DataBytes, Class: stats.ClassRead,
		Deliver: func() { t.Fatal("dropped frame delivered") }})
	e.Run()
	if err := tr.Verify(true); err == nil {
		t.Fatal("audit passed with a silently lost payload")
	}
	if tr.Outstanding() != 1 {
		t.Fatalf("Outstanding = %d, want 1", tr.Outstanding())
	}
}

// After RepairNode the killed hardware is live again (module replacement
// during escalation recovery).
func TestFaultPlanRepairNode(t *testing.T) {
	e, n, tr, _ := newXport()
	n.SetPlan(&FaultPlan{Seed: 8,
		RouterKills: []RouterKill{{Node: 5, At: 0}},
		LinkKills:   []LinkKill{{From: 5, To: 6, At: 0}, {From: 0, To: 1, At: 0}},
	})
	if n.Reachable(0, 5) {
		t.Fatal("router 5 should be dead")
	}
	n.RepairNode(5)
	if !n.Reachable(0, 5) || !n.Reachable(5, 6) {
		t.Fatal("repair did not revive node 5's fabric hardware")
	}
	// The unrelated link kill survives the repair.
	delivered := 0
	tr.Send(Message{Src: 0, Dst: 1, Bytes: DataBytes, Class: stats.ClassRead,
		Deliver: func() { delivered++ }})
	st := n.stats
	e.Run()
	if delivered != 1 || st.NetRouteFailovers == 0 {
		t.Fatalf("0->1 should still fail over its dead link: delivered=%d failovers=%d",
			delivered, st.NetRouteFailovers)
	}
}

// Config validation fails fast at New instead of silently mis-timing.
func TestConfigValidation(t *testing.T) {
	e := sim.NewEngine()
	bad := []Config{
		{DimX: 0, DimY: 4, Base: 30, PerHop: 8, PicosPerByte: 160},
		{DimX: 4, DimY: -1, Base: 30, PerHop: 8, PicosPerByte: 160},
		{DimX: 4, DimY: 4, Base: 30, PerHop: 8, PicosPerByte: 0},
		{DimX: 4, DimY: 4, Base: 30, PerHop: 8, PicosPerByte: -160},
		{DimX: 4, DimY: 4, Base: -1, PerHop: 8, PicosPerByte: 160},
	}
	for i, cfg := range bad {
		if _, err := New(e, cfg, nil); err == nil {
			t.Errorf("case %d: New accepted invalid config %+v", i, cfg)
		}
	}
	if _, err := New(e, DefaultConfig(), nil); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestTorusShapeAndNeighbors(t *testing.T) {
	cases := []struct{ nodes, x, y int }{
		{4, 2, 2}, {8, 4, 2}, {16, 4, 4}, {6, 3, 2}, {9, 3, 3},
	}
	for _, c := range cases {
		if x, y := TorusShape(c.nodes); x != c.x || y != c.y {
			t.Errorf("TorusShape(%d) = %dx%d, want %dx%d", c.nodes, x, y, c.x, c.y)
		}
	}
	// 4x2 torus, node 0: +X=1, -X=3, +Y=4, -Y=4 (Y ring of 2 wraps onto
	// the same neighbor).
	if nbs := TorusNeighbors(4, 2, 0); nbs != [4]int{1, 3, 4, 4} {
		t.Errorf("TorusNeighbors(4,2,0) = %v", nbs)
	}
}

// TestTransportRoundTripZeroAlloc pins the transport's pooled records
// (DESIGN §4i): on a plan that engages the transport but loses nothing, a
// warm send → deliver → ack round trip, including the retransmit timer
// that fires after the ack, allocates nothing.
func TestTransportRoundTripZeroAlloc(t *testing.T) {
	e, n, tr, st := newXport()
	n.SetPlan(&FaultPlan{Seed: 1, Rules: []Rule{{Op: OpDrop, Prob: 0, Class: AnyClass}}})
	delivered := 0
	m := Message{Src: 0, Dst: 5, Bytes: DataBytes, Class: stats.ClassRead,
		Deliver: func() { delivered++ }}
	step := func() {
		tr.Send(m)
		e.Run()
	}
	// Warm up through a full timing-wheel revolution.
	for i := 0; i < 8192; i++ {
		step()
	}
	acks := st.XportAcks
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("transport round trip allocates %.1f per op, want 0", allocs)
	}
	if delivered != 8192+1001 || st.XportAcks-acks != 1001 {
		t.Fatalf("delivered %d, acks %d: every payload must be delivered and acked once",
			delivered, st.XportAcks-acks)
	}
	if err := tr.Verify(true); err != nil {
		t.Fatal(err)
	}
}

// frameCRC must be exactly the library's CRC-32 (IEEE) of the header.
func TestFrameCRCMatchesLibrary(t *testing.T) {
	for seq := uint64(0); seq < 64; seq++ {
		f := makeFrame(framePayload, seq*0x9E3779B97F4A7C15, arch.NodeID(seq%7), 3, stats.ClassParity, DataBytes)
		if want := crc32.ChecksumIEEE(f.hdr[:]); f.crc != want {
			t.Fatalf("seq %d: frameCRC %08x, crc32.ChecksumIEEE %08x", seq, f.crc, want)
		}
	}
}
