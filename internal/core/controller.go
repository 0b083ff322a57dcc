package core

import (
	"slices"
	"sync"

	"revive/internal/arch"
	"revive/internal/coherence"
	"revive/internal/mem"
	"revive/internal/network"
	"revive/internal/sim"
	"revive/internal/stats"
	"revive/internal/trace"
)

// Step identifies an ordered point in ReVive's log/parity/data update
// sequence. The race-condition tests of section 4.2 inject node loss at
// exactly these points and verify that recovery still restores the
// checkpoint state.
type Step int

const (
	// StepLogDataWritten: the log entry's old-data line and (unvalidated)
	// header are in memory.
	StepLogDataWritten Step = iota
	// StepLogMarkerWritten: the entry's Marker is validated in memory.
	StepLogMarkerWritten
	// StepLogParityApplied: the parity of the entry's data line is
	// updated at the parity home.
	StepLogParityApplied
	// StepLogMarkerParityApplied: the parity of the entry's header line
	// (with the Marker) is updated — strictly after StepLogParityApplied
	// per the atomic-log-update race rule.
	StepLogMarkerParityApplied
	// StepDataWritten: the new data D' is in memory.
	StepDataWritten
	// StepDataParityApplied: the data parity update is applied.
	StepDataParityApplied
)

// String returns a short label for logging and tests.
func (s Step) String() string {
	return [...]string{"log-data", "log-marker", "log-parity", "log-marker-parity",
		"data", "data-parity"}[s]
}

// Steps returns every protocol step in sequence order. The chaos harness
// enumerates injection points from it.
func Steps() []Step {
	return []Step{StepLogDataWritten, StepLogMarkerWritten, StepLogParityApplied,
		StepLogMarkerParityApplied, StepDataWritten, StepDataParityApplied}
}

// ParseStep maps a String() label back to its Step.
func ParseStep(name string) (Step, bool) {
	for _, s := range Steps() {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// EventCounts tallies the Table 1 event classes, plus the inline-log
// strategy's fit/overflow split (zero under every other backend).
type EventCounts struct {
	WBLogged     uint64 // write-back to memory, already logged (Figure 4)
	RDXNotLogged uint64 // read-exclusive/upgrade, not yet logged (Figure 5(a))
	WBNotLogged  uint64 // write-back, not yet logged (Figure 5(b))

	// InlineFits counts not-yet-logged write-backs whose undo entry fit
	// in the line's spare capacity (inline-log strategy); InlineOverflows
	// counts the ones that spilled to the classic out-of-line log.
	InlineFits      uint64
	InlineOverflows uint64
}

// Controller is one node's ReVive directory-controller extension: the
// Logged-bit table, the hardware log, and the parity-update engine. It
// implements coherence.Extension for lines homed at its node, and handles
// incoming parity updates for parity pages it hosts.
type Controller struct {
	ctx     *sim.Ctx
	node    arch.NodeID
	topo    arch.Topology
	amap    *arch.AddressMap
	dirs    []*coherence.DirCtrl
	net     network.Fabric
	st      *stats.Stats
	tracker *coherence.Tracker
	peers   []*Controller // indexed by node; set by Wire

	// strategy is the machine's recovery-strategy backend: it decides
	// what WriteIntent/Write/CommitEpoch actually do. NewController
	// installs the default (revive); machine.New overrides it with the
	// machine-wide instance via SetStrategy before any traffic runs.
	strategy Strategy

	log   *HWLog
	lbits lbitTable
	epoch uint64
	// debt is the parity ledger: for every memory line this controller
	// has written whose parity update has not yet been applied remotely,
	// the accumulated XOR delta owed to its parity line. It models the
	// controller's transient-state buffers: writes accrue debt the
	// instant they hit memory; the remote parity application pays it
	// down; after a fail-stop error, recovery Phase 1 settles whatever
	// remains (ReconcileParity). XOR accumulation makes the ledger
	// order-independent.
	//
	// debtMu covers the sharded-execution cross-node access: payDebt runs
	// at the parity line's home node — under sim.EnableSharding possibly a
	// different shard than this controller's accrue. Because XOR
	// accumulation commutes and the ledger is only *read* from serial
	// contexts (recovery, end-of-run checks), interleaving accrue/payDebt
	// in either order yields the same ledger — so a lock (rather than a
	// canonical-order replay) preserves byte-identical results.
	debtMu sync.Mutex
	debt   map[arch.PhysLine]arch.Data
	// reconScratch is ReconcileParity's reusable target-sorting buffer;
	// puFree is the free list backing parity-update registrations. Both
	// keep the steady-state event loop allocation-free (single-threaded
	// engine: no synchronization needed).
	reconScratch []arch.PhysLine
	puFree       []*parityUpdate

	// DisableLBits is the section 4.1.2 ablation: without the L bit the
	// old content is logged on *every* write-back (still correct; the
	// log is restored newest-first).
	DisableLBits bool
	// DisableEagerLog is the acknowledgments-section ablation: without
	// logging on read-exclusive/upgrade (Figure 5(a)), every first
	// write-back takes the slow Figure 5(b) path that delays the
	// acknowledgment.
	DisableEagerLog bool
	// StepHook, if set, observes every Step transition (race tests).
	StepHook func(Step, arch.LineAddr)
	// BugDataBeforeLog is a deliberately broken build for validating the
	// chaos harness (never set by any production configuration): it
	// inverts the section 4.2 log-before-data ordering on the write-back
	// path, so the log captures the *new* content instead of the
	// checkpoint content. A healthy run is unaffected — parity stays
	// consistent — but any rollback then restores the wrong bytes, which
	// the campaigns' byte-exact oracle must catch.
	BugDataBeforeLog bool
	// halted abandons in-progress update sequences at their next step
	// boundary (fail-stop freeze injected from a StepHook).
	halted bool

	// Events tallies Table 1 event classes.
	Events EventCounts
}

// NewController builds the ReVive extension for one node. ctx is the
// node's scheduling context.
func NewController(ctx *sim.Ctx, node arch.NodeID, topo arch.Topology,
	amap *arch.AddressMap, dirs []*coherence.DirCtrl, net network.Fabric,
	st *stats.Stats, tracker *coherence.Tracker) *Controller {
	return &Controller{
		ctx: ctx, node: node, topo: topo, amap: amap, dirs: dirs, net: net,
		st: st, tracker: tracker,
		strategy: reviveStrategy{},
		log:      NewHWLog(node, amap, dirs[node].Mem()),
		lbits:    newLBitTable(),
		debt:     make(map[arch.PhysLine]arch.Data),
	}
}

// SetStrategy installs the machine's recovery-strategy backend. Call it
// before any simulated traffic; the instance is shared by all of the
// machine's controllers (conelog keeps machine-global dependence state
// there).
func (c *Controller) SetStrategy(s Strategy) { c.strategy = s }

// Strategy returns the installed backend.
func (c *Controller) Strategy() Strategy { return c.strategy }

// Wire connects the per-node controllers so parity updates can be handled
// at their destination.
func (c *Controller) Wire(peers []*Controller) { c.peers = peers }

// Log exposes the node's hardware log (statistics and recovery).
func (c *Controller) Log() *HWLog { return c.log }

// Node returns the controller's node.
func (c *Controller) Node() arch.NodeID { return c.node }

// Epoch returns the current checkpoint epoch.
func (c *Controller) Epoch() uint64 { return c.epoch }

// Logged reports the L bit of a line (tests).
func (c *Controller) Logged(line arch.LineAddr) bool {
	phys, ok := c.amap.LookupLine(line)
	if !ok || phys.Node != c.node {
		return false
	}
	return c.lbits.get(lineIndex(phys))
}

// ForEachLBit calls fn for every line whose Logged bit is set, in ascending
// line order. Invariant checkers cross-check the L-bit table against the
// log.
func (c *Controller) ForEachLBit(fn func(arch.LineAddr)) {
	c.lbits.forEach(fn)
}

func (c *Controller) hook(s Step, line arch.LineAddr) {
	if c.StepHook != nil {
		c.StepHook(s, line)
	}
}

// hookAbort fires the step hook and reports whether the sequence must be
// abandoned (the hook injected a fail-stop freeze).
func (c *Controller) hookAbort(s Step, line arch.LineAddr) bool {
	c.hook(s, line)
	return c.halted
}

// Halt abandons all in-progress update sequences at their next step
// boundary (fail-stop). Unhalt re-enables the controller for resumption.
func (c *Controller) Halt()   { c.halted = true }
func (c *Controller) Unhalt() { c.halted = false }

func (c *Controller) needsLog(phys arch.PhysLine) bool {
	return !c.lbits.get(lineIndex(phys)) || c.DisableLBits
}

func (c *Controller) local(p arch.PhysLine) arch.PhysLine {
	p.Node = c.node
	return p
}

// --- coherence.Extension ---

// WriteIntent dispatches the Figure 5(a) flow (read-exclusive or upgrade
// for a line homed at this node) to the installed strategy.
func (c *Controller) WriteIntent(line arch.LineAddr, phys arch.PhysLine, release func()) {
	c.strategy.WriteIntent(c, line, phys, release)
}

// Write dispatches the write-back flows (Figure 5(b) logging and the
// Figure 4 data write + parity update) to the installed strategy.
func (c *Controller) Write(line arch.LineAddr, phys arch.PhysLine, data arch.Data,
	ckp bool, ack, release func()) {
	c.strategy.Write(c, line, phys, data, ckp, ack, release)
}

// dataWrite performs the Figure 4 sequence: read current D (the re-read the
// paper keeps because the directory controller has no data cache), write
// D', acknowledge, update the data parity, release. Under mirroring the
// reads and XOR are omitted (section 3.2.1).
func (c *Controller) dataWrite(line arch.LineAddr, phys arch.PhysLine, data arch.Data,
	ckp bool, ack, release func()) {
	m := c.dirs[c.node].Mem()
	old := m.Peek(phys.MemAddr())
	write := func() {
		c.st.Mem(wbClass(ckp))
		c.accrue(c.local(phys), old, data)
		m.Write(phys.MemAddr(), data, func() {
			if c.hookAbort(StepDataWritten, line) {
				return
			}
			ack()
			delta := old
			delta.XOR(&data)
			c.sendParity(parityUpdate{
				target: c.topo.ParityOf(c.local(phys)),
				delta:  delta,
				step:   StepDataParityApplied,
				line:   line,
			}, release)
		})
	}
	if c.topo.MirroredFrame(phys.Frame) {
		// Mirroring omits the old-data read and the XOR (section
		// 3.2.1); the delta it ships degenerates to the new content
		// because the mirror copy equals the old data.
		write()
		return
	}
	c.st.Mem(stats.ClassParity) // Table 1: the extra read of D
	m.Read(phys.MemAddr(), func(arch.Data) { write() })
}

func wbClass(ckp bool) stats.Class {
	if ckp {
		return stats.ClassCkpWB
	}
	return stats.ClassExeWB
}

// appendLog writes one log entry (old content of line) and updates the log
// parity, then runs done. Sequence per section 4.2: entry data + header
// written, marker validated, then one parity round covering the entry (data
// line parity strictly before header/marker parity).
func (c *Controller) appendLog(line arch.LineAddr, old arch.Data, done func()) {
	c.st.Trace.Instant(trace.LogAppend, int(c.node), uint64(line))
	m := c.dirs[c.node].Mem()
	s := c.log.Reserve()
	hdr := c.local(s.headerLine())
	dat := c.local(s.dataLine())

	// Old content of the log lines (reused slots hold stale entries) for
	// the parity delta. Table 1 charges this read to the log-parity step.
	oldHdr := m.Peek(hdr.MemAddr())
	oldDat := m.Peek(dat.MemAddr())

	// Write the entry: data line (timed, the Table 1 "copy data to log"
	// access) and header without marker (piggybacked on the same burst).
	bareHdr := encodeHeader(header{line: line, epoch: c.epoch})
	c.accrue(hdr, oldHdr, bareHdr)
	m.Poke(hdr.MemAddr(), bareHdr)
	c.st.Mem(stats.ClassLog)
	c.accrue(dat, oldDat, old)
	m.Write(dat.MemAddr(), old, func() {
		if c.hookAbort(StepLogDataWritten, line) {
			return
		}
		// Validate the Marker (atomic-log-update race: an entry is used
		// by recovery only once its marker is in memory).
		newHdr := encodeHeader(header{line: line, epoch: c.epoch, marker: markerValid})
		c.accrue(hdr, bareHdr, newHdr)
		m.Poke(hdr.MemAddr(), newHdr)
		if c.hookAbort(StepLogMarkerWritten, line) {
			return
		}

		deltaDat := oldDat
		deltaDat.XOR(&old)
		deltaHdr := oldHdr
		deltaHdr.XOR(&newHdr)
		send := func() {
			c.sendParity(parityUpdate{
				target:    c.topo.ParityOf(dat),
				delta:     deltaDat,
				step:      StepLogParityApplied,
				line:      line,
				auxValid:  true,
				auxTarget: c.topo.ParityOf(hdr),
				auxDelta:  deltaHdr,
				auxStep:   StepLogMarkerParityApplied,
			}, done)
		}
		if c.topo.MirroredFrame(dat.Frame) {
			send()
			return
		}
		// Table 1: "update log parity" includes reading the old log
		// line content at the home (skipped under mirroring).
		c.st.Mem(stats.ClassParity)
		m.Read(dat.MemAddr(), func(arch.Data) { send() })
	})
}

// writeCkptMarker appends the checkpoint-commit marker entry for epoch
// (phase two of the two-phase commit, section 4.2), then runs done.
func (c *Controller) writeCkptMarker(epoch uint64, done func()) {
	// done counts down the checkpoint manager's global commit barrier —
	// cross-shard state — but the parity acknowledgment that completes the
	// marker write is an event of this node's shard, so the callback must
	// go through Defer to reach the barrier in serial context.
	ack := func() { c.ctx.Defer(done) }
	if !c.topo.HasDataFrames(c.node) {
		// A dedicated parity node homes no data, so its log is empty
		// and needs no commit marker.
		ack()
		return
	}
	c.st.Trace.Instant(trace.CkptMarker, int(c.node), epoch)
	m := c.dirs[c.node].Mem()
	s := c.log.Reserve()
	hdr := c.local(s.headerLine())
	oldHdr := m.Peek(hdr.MemAddr())
	newHdr := encodeHeader(header{epoch: epoch, marker: markerCkpt})
	c.st.Mem(stats.ClassLog)
	c.accrue(hdr, oldHdr, newHdr)
	m.Write(hdr.MemAddr(), newHdr, func() {
		delta := oldHdr
		delta.XOR(&newHdr)
		c.sendParity(parityUpdate{
			target: c.topo.ParityOf(hdr),
			delta:  delta,
			step:   StepLogMarkerParityApplied,
			line:   0,
		}, ack)
	})
}

// CommitEpoch dispatches the checkpoint commit (epoch advance, logging
// state reset, log reclamation) to the installed strategy.
func (c *Controller) CommitEpoch(epoch uint64, retain int) {
	c.strategy.CommitEpoch(c, epoch, retain)
}

// --- distributed parity protocol ---

// parityUpdate is one parity-update message: the XOR delta for a target
// parity line (or the full new content under mirroring), optionally
// carrying a piggybacked header-line update for log entries.
//
// Each update is registered with its originating controller until the
// acknowledgment returns. The registry models the controller's transient-
// state buffers: on a fail-stop error, surviving controllers reconcile
// their in-flight updates during recovery Phase 1 (the messages are
// protected by error-detection codes, section 3.1.2); only updates whose
// originating or target controller died are genuinely lost, and those are
// exactly the cases the section 4.2 race arguments cover.
type parityUpdate struct {
	from   *Controller // originator, for ledger pay-down
	target arch.PhysLine
	delta  arch.Data
	step   Step
	line   arch.LineAddr

	auxValid  bool
	auxTarget arch.PhysLine
	auxDelta  arch.Data
	auxStep   Step
}

// accrue records parity debt for a write of new over old at data line
// phys, at the instant the memory content changes.
func (c *Controller) accrue(phys arch.PhysLine, old, new arch.Data) {
	target := c.topo.ParityOf(phys)
	if c.ctx.Sharded() {
		c.debtMu.Lock()
		defer c.debtMu.Unlock()
	}
	d := c.debt[target]
	d.XOR(&old)
	d.XOR(&new)
	if d.IsZero() {
		delete(c.debt, target)
	} else {
		c.debt[target] = d
	}
}

// payDebt cancels delta from the ledger once the remote parity application
// has happened.
func (c *Controller) payDebt(target arch.PhysLine, delta arch.Data) {
	if c.ctx.Sharded() {
		c.debtMu.Lock()
		defer c.debtMu.Unlock()
	}
	d := c.debt[target]
	d.XOR(&delta)
	if d.IsZero() {
		delete(c.debt, target)
	} else {
		c.debt[target] = d
	}
}

// ReconcileParity settles the ledger after a fail-stop error (recovery
// Phase 1): every outstanding delta whose parity memory survives is applied
// directly, in sorted target order so that recovery work — and any stats or
// traces it emits — is independent of Go's randomized map-iteration order.
// Deltas whose target parity node is itself lost are moot (Phase 4 rebuilds
// those parity pages from the surviving data) but are counted and traced so
// the rebuild accounting stays complete. A lost node's own controller must
// call DropPending instead — its buffers died with it (and its data is
// reconstructed anyway).
func (c *Controller) ReconcileParity() {
	targets := c.reconScratch[:0]
	for target := range c.debt {
		targets = append(targets, target)
	}
	slices.SortFunc(targets, comparePhysLines)
	for _, target := range targets {
		m := c.dirs[target.Node].Mem()
		if m.LineLost(target.MemAddr()) {
			// Fully lost node, or the target parity line sits inside a
			// partially-lost range: either way the parity copy is gone
			// and will be rebuilt from data, so the delta is moot.
			c.st.ParityDebtsDropped++
			c.st.Trace.Instant(trace.ParityDebtDropped, int(c.node), target.MemAddr())
			continue
		}
		delta := c.debt[target]
		cur := m.Peek(target.MemAddr())
		cur.XOR(&delta)
		m.Poke(target.MemAddr(), cur)
	}
	c.reconScratch = targets[:0]
	clearDebt(c.debt)
}

// comparePhysLines orders physical lines by (node, frame, offset).
func comparePhysLines(a, b arch.PhysLine) int {
	switch {
	case a.Node != b.Node:
		return int(a.Node) - int(b.Node)
	case a.Frame != b.Frame:
		return int(a.Frame) - int(b.Frame)
	default:
		return int(a.Off) - int(b.Off)
	}
}

// clearDebt empties the ledger in place, keeping its buckets for reuse.
func clearDebt(debt map[arch.PhysLine]arch.Data) {
	for k := range debt {
		delete(debt, k)
	}
}

// DropPending discards the ledger (the controller itself was lost).
func (c *Controller) DropPending() {
	clearDebt(c.debt)
}

// PendingDebts reports outstanding ledger entries (tests).
func (c *Controller) PendingDebts() int { return len(c.debt) }

// getUpdate takes a registration from the free list (or allocates the
// first time); putUpdate returns one once its round trip completes. An
// update abandoned mid-flight — fabric loss, fail-stop freeze — simply
// never returns to the list and is collected with its closures.
func (c *Controller) getUpdate() *parityUpdate {
	if n := len(c.puFree); n > 0 {
		p := c.puFree[n-1]
		c.puFree[n-1] = nil
		c.puFree = c.puFree[:n-1]
		return p
	}
	return &parityUpdate{}
}

func (c *Controller) putUpdate(p *parityUpdate) {
	*p = parityUpdate{}
	c.puFree = append(c.puFree, p)
}

// sendParity transmits the update to the parity line's home node and runs
// done when the acknowledgment returns (Figure 4's messages 3 and 4). The
// caller's directory entry stays busy for the duration.
func (c *Controller) sendParity(u parityUpdate, done func()) {
	c.tracker.IncFrom(c.ctx)
	c.st.Trace.AsyncBegin(trace.ParityUpdate, int(c.node), uint64(u.line))
	p := c.getUpdate()
	*p = u
	p.from = c
	self := c.node
	c.net.Send(network.Message{
		Src: self, Dst: p.target.Node, Bytes: network.DataBytes, Class: stats.ClassParity,
		Deliver: func() {
			c.peers[p.target.Node].handleParityUpdate(p, func() {
				c.net.Send(network.Message{
					Src: p.target.Node, Dst: self, Bytes: network.ControlBytes,
					Class: stats.ClassParity,
					Deliver: func() {
						c.st.Trace.AsyncEnd(trace.ParityUpdate, int(self), uint64(p.line))
						c.tracker.DecFrom(c.ctx)
						c.putUpdate(p)
						done()
					},
				})
			})
		},
	})
}

// handleParityUpdate applies an incoming update at the parity line's home:
// one controller-pipeline pass, then read-XOR-write of the parity line
// (the same XOR functionally under mirroring, where the "parity" is a copy
// and the reads are skipped — only the timing differs), then the
// piggybacked header update — strictly after the data parity, per the
// atomic-log-update race rule. Each application pays down the originator's
// ledger at the instant the parity content changes.
func (c *Controller) handleParityUpdate(u *parityUpdate, ackSend func()) {
	m := c.dirs[c.node].Mem()
	apply := func() {
		finish := func() {
			if u.auxValid {
				c.applyDelta(m, u.auxTarget, u.auxDelta)
				u.from.payDebt(u.auxTarget, u.auxDelta)
				if c.hookAbort(u.auxStep, u.line) {
					return // frozen at the aux step: the ack dies in flight
				}
			}
			ackSend()
		}
		newVal := m.Peek(u.target.MemAddr())
		newVal.XOR(&u.delta)
		u.from.payDebt(u.target, u.delta)
		if c.topo.MirroredFrame(u.target.Frame) {
			c.st.Mem(stats.ClassParity)
			m.Write(u.target.MemAddr(), newVal, func() {
				if c.hookAbort(u.step, u.line) {
					return
				}
				finish()
			})
			return
		}
		c.st.Mem(stats.ClassParity)
		c.st.Mem(stats.ClassParity)
		delta := u.delta
		m.ReadModifyWrite(u.target.MemAddr(), func(p *arch.Data) { p.XOR(&delta) },
			func(arch.Data) {
				if c.hookAbort(u.step, u.line) {
					return
				}
				finish()
			})
	}
	c.ctx.At(c.dirs[c.node].Occupy(), apply)
}

// applyDelta folds a piggybacked (uncharged) line update into memory.
// Under mirroring the "parity" copy equals the old data, so the XOR yields
// exactly the new data — one formula covers both organizations.
func (c *Controller) applyDelta(m *mem.Memory, target arch.PhysLine, delta arch.Data) {
	cur := m.Peek(target.MemAddr())
	cur.XOR(&delta)
	m.Poke(target.MemAddr(), cur)
}

// InitEpoch writes the initial checkpoint marker (epoch 0) directly with
// consistent parity, modeling machine initialization: the boot image is
// checkpoint 0, so a rollback before the first periodic checkpoint is
// well-defined.
func (c *Controller) InitEpoch() {
	if !c.topo.HasDataFrames(c.node) {
		return
	}
	s := c.log.Reserve()
	c.pokeWithParity(c.local(s.headerLine()),
		encodeHeader(header{epoch: 0, marker: markerCkpt}))
}

// pokeWithParity updates a line and its parity functionally (no simulated
// time). Initialization, recovery's restoration writes and the inline-log
// backend's in-line undo entries use it. The XOR covers mirroring too (the
// copy equals the old data). The parity line lives in another node's
// memory, which another shard owns during a parallel round, so its update
// is a deferred effect: inline on a serial engine, at the round barrier
// otherwise. Parity updates are XORs, so their order does not matter.
func (c *Controller) pokeWithParity(p arch.PhysLine, newData arch.Data) {
	m := c.dirs[p.Node].Mem()
	delta := m.Peek(p.MemAddr())
	m.Poke(p.MemAddr(), newData)
	delta.XOR(&newData)
	par := c.topo.ParityOf(p)
	pmem := c.dirs[par.Node].Mem()
	c.ctx.Defer(func() {
		if pmem.LineLost(par.MemAddr()) {
			return // the parity copy is gone; phase 4 will rebuild the group
		}
		cur := pmem.Peek(par.MemAddr())
		cur.XOR(&delta)
		pmem.Poke(par.MemAddr(), cur)
	})
}
