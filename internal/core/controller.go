package core

import (
	"slices"

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
	debt map[uint64]arch.Data // keyed by debtKey(parity line)
	// reconScratch is ReconcileParity's reusable target-sorting buffer.
	// seqFree and puFree are the free lists of the write-path sequences
	// and parity-update registrations this node originates (DESIGN §4i).
	// A record is taken and returned only by events of this node;
	// CommitEpoch empties both.
	reconScratch []uint64
	seqFree      []*wbSeq
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
		debt:     make(map[uint64]arch.Data),
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

// wbSeq is one write-path protocol sequence on a line homed at this
// node: the Figure 4 data write with its parity round, optionally
// preceded by the section 4.2 log append (Figure 5(b)), or the log append
// alone (Figure 5(a)). It is a pooled record (DESIGN §4i). A sequence has
// one memory access or parity round outstanding at a time, so next names
// the step that runs when it completes, and two continuations bound once,
// when the record is first allocated, serve every step: fireFn for writes
// and parity rounds, readFn for reads. No step of the sequence allocates.
// The controller takes the record from seqFree and finish returns it from
// the final parity acknowledgment, an event of this node. A sequence
// abandoned at a fail-stop freeze drops its record.
type wbSeq struct {
	c            *Controller
	line         arch.LineAddr
	phys         arch.PhysLine
	data         arch.Data // D', the content the data write stores
	old          arch.Data // the log entry's content, then D for the data write
	ckp          bool
	next         seqStep
	afterLog     seqStep // seqStart or seqFinish: what follows the log append
	ack, release func()

	// The log append: the slot's lines, the epoch of its unvalidated
	// header, and the parity deltas. The deltas start as the slot's stale
	// content (a reused slot holds an old entry); the marker step folds in
	// the new content.
	hdr, dat           arch.PhysLine
	logEpoch           uint64
	datDelta, hdrDelta arch.Data

	fireFn func()
	readFn func(arch.Data)
}

// seqStep names the step a write-path sequence runs when its outstanding
// memory access or parity round completes.
type seqStep uint8

const (
	seqAppendLog   seqStep = iota // the Figure 5(b) read of D is done
	seqMarker                     // the entry's data line is written
	seqLogParity                  // the log line's old content is read
	seqStart                      // the log parity round is back
	seqWrite                      // the re-read of D is done
	seqDataWritten                // D' is in memory
	seqFinish                     // the last parity round is back
)

func (w *wbSeq) fire() {
	switch w.next {
	case seqAppendLog:
		w.appendLog()
	case seqMarker:
		w.marker()
	case seqLogParity:
		w.sendLogParity()
	case seqStart:
		w.start()
	case seqWrite:
		w.write()
	case seqDataWritten:
		w.dataWritten()
	case seqFinish:
		w.finish()
	}
}

// read is the completion of every read the sequence issues: the content
// is the Table 1 timing access only, the functional values are peeked.
func (w *wbSeq) read(arch.Data) { w.fire() }

// getSeq takes a write-path record from the free list (allocating and
// binding one the first time).
func (c *Controller) getSeq(line arch.LineAddr, phys arch.PhysLine, ack, release func()) *wbSeq {
	var w *wbSeq
	if n := len(c.seqFree); n > 0 {
		w = c.seqFree[n-1]
		c.seqFree[n-1] = nil
		c.seqFree = c.seqFree[:n-1]
	} else {
		w = &wbSeq{c: c}
		w.fireFn, w.readFn = w.fire, w.read
	}
	w.line, w.phys, w.ack, w.release = line, phys, ack, release
	return w
}

// logEntry runs a log-only sequence: append content as line's entry, then
// run release once the entry's parity round returns (Figure 5(a)).
func (c *Controller) logEntry(line arch.LineAddr, phys arch.PhysLine, content arch.Data, release func()) {
	w := c.getSeq(line, phys, nil, release)
	w.old, w.afterLog = content, seqFinish
	w.appendLog()
}

// logThenWrite runs the Figure 5(b) flow for the entry content in w.old:
// read the line, append the log entry, and start the data write once the
// entry's parity round returns.
func (w *wbSeq) logThenWrite() {
	w.next, w.afterLog = seqAppendLog, seqStart
	w.c.dirs[w.c.node].Mem().Read(w.phys.MemAddr(), w.readFn)
}

// finish ends the sequence: the record goes back to the free list before
// the caller's release runs, so a release that starts the next
// transaction's write reuses it.
func (w *wbSeq) finish() {
	release := w.release
	w.ack, w.release = nil, nil
	w.c.seqFree = append(w.c.seqFree, w)
	release()
}

// start performs the Figure 4 sequence: read current D (the re-read the
// paper keeps because the directory controller has no data cache), write
// D', acknowledge, update the data parity, release. Under mirroring the
// reads and XOR are omitted (section 3.2.1).
func (w *wbSeq) start() {
	c := w.c
	m := c.dirs[c.node].Mem()
	w.old = m.Peek(w.phys.MemAddr())
	if c.topo.MirroredFrame(w.phys.Frame) {
		// Mirroring omits the old-data read and the XOR (section
		// 3.2.1); the delta it ships degenerates to the new content
		// because the mirror copy equals the old data.
		w.write()
		return
	}
	c.st.Mem(stats.ClassParity) // Table 1: the extra read of D
	w.next = seqWrite
	m.Read(w.phys.MemAddr(), w.readFn)
}

func (w *wbSeq) write() {
	c := w.c
	c.st.Mem(wbClass(w.ckp))
	c.accrue(c.local(w.phys), w.old, w.data)
	w.next = seqDataWritten
	c.dirs[c.node].Mem().Write(w.phys.MemAddr(), w.data, w.fireFn)
}

func (w *wbSeq) dataWritten() {
	c := w.c
	if c.hookAbort(StepDataWritten, w.line) {
		return
	}
	w.ack()
	p := c.getUpdate()
	p.parityDelta = parityDelta{
		target: c.topo.ParityOf(c.local(w.phys)),
		delta:  w.old,
		step:   StepDataParityApplied,
		line:   w.line,
	}
	p.delta.XOR(&w.data)
	w.next = seqFinish
	c.sendParity(p, w.fireFn)
}

func wbClass(ckp bool) stats.Class {
	if ckp {
		return stats.ClassCkpWB
	}
	return stats.ClassExeWB
}

// appendLog writes one log entry (w.old, the old content of the line) and
// updates the log parity, then continues with w.afterLog. Sequence per
// section 4.2: entry data + header written, marker validated, then one
// parity round covering the entry (data line parity strictly before
// header/marker parity).
func (w *wbSeq) appendLog() {
	c := w.c
	c.st.Trace.Instant(trace.LogAppend, int(c.node), uint64(w.line))
	m := c.dirs[c.node].Mem()
	s := c.log.Reserve()
	w.hdr = c.local(s.headerLine())
	w.dat = c.local(s.dataLine())

	// Old content of the log lines (reused slots hold stale entries) for
	// the parity delta. Table 1 charges this read to the log-parity step.
	w.hdrDelta = m.Peek(w.hdr.MemAddr())
	w.datDelta = m.Peek(w.dat.MemAddr())

	// Write the entry: data line (timed, the Table 1 "copy data to log"
	// access) and header without marker (piggybacked on the same burst).
	w.logEpoch = c.epoch
	bareHdr := encodeHeader(header{line: w.line, epoch: w.logEpoch})
	c.accrue(w.hdr, w.hdrDelta, bareHdr)
	m.Poke(w.hdr.MemAddr(), bareHdr)
	c.st.Mem(stats.ClassLog)
	c.accrue(w.dat, w.datDelta, w.old)
	w.datDelta.XOR(&w.old)
	w.next = seqMarker
	m.Write(w.dat.MemAddr(), w.old, w.fireFn)
}

// marker runs once the entry's data line is written.
func (w *wbSeq) marker() {
	c := w.c
	if c.hookAbort(StepLogDataWritten, w.line) {
		return
	}
	// Validate the Marker (atomic-log-update race: an entry is used by
	// recovery only once its marker is in memory).
	m := c.dirs[c.node].Mem()
	bareHdr := encodeHeader(header{line: w.line, epoch: w.logEpoch})
	newHdr := encodeHeader(header{line: w.line, epoch: c.epoch, marker: markerValid})
	c.accrue(w.hdr, bareHdr, newHdr)
	m.Poke(w.hdr.MemAddr(), newHdr)
	if c.hookAbort(StepLogMarkerWritten, w.line) {
		return
	}
	w.hdrDelta.XOR(&newHdr)
	if c.topo.MirroredFrame(w.dat.Frame) {
		w.sendLogParity()
		return
	}
	// Table 1: "update log parity" includes reading the old log line
	// content at the home (skipped under mirroring).
	c.st.Mem(stats.ClassParity)
	w.next = seqLogParity
	m.Read(w.dat.MemAddr(), w.readFn)
}

func (w *wbSeq) sendLogParity() {
	c := w.c
	p := c.getUpdate()
	p.parityDelta = parityDelta{
		target:    c.topo.ParityOf(w.dat),
		delta:     w.datDelta,
		step:      StepLogParityApplied,
		line:      w.line,
		auxValid:  true,
		auxTarget: c.topo.ParityOf(w.hdr),
		auxDelta:  w.hdrDelta,
		auxStep:   StepLogMarkerParityApplied,
	}
	w.next = w.afterLog
	c.sendParity(p, w.fireFn)
}

// writeCkptMarker appends the checkpoint-commit marker entry for epoch
// (phase two of the two-phase commit, section 4.2), then runs done.
func (c *Controller) writeCkptMarker(epoch uint64, done func()) {
	// done counts down the checkpoint manager's global commit barrier.
	if !c.topo.HasDataFrames(c.node) {
		// A dedicated parity node homes no data, so its log is empty
		// and needs no commit marker.
		done()
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
		p := c.getUpdate()
		p.parityDelta = parityDelta{
			target: c.topo.ParityOf(hdr),
			delta:  delta,
			step:   StepLogMarkerParityApplied,
			line:   0,
		}
		c.sendParity(p, done)
	})
}

// CommitEpoch dispatches the checkpoint commit (epoch advance, logging
// state reset, log reclamation) to the installed strategy. A commit is a
// quiescent point, so every protocol record of the node is idle: the
// node's free lists, and its directory's, are emptied here, which returns
// the checkpoint flush's burst of records to the collector instead of
// holding it through the next interval (DESIGN §4i).
func (c *Controller) CommitEpoch(epoch uint64, retain int) {
	c.seqFree, c.puFree = nil, nil
	c.dirs[c.node].DropFreeLists()
	c.strategy.CommitEpoch(c, epoch, retain)
}

// --- distributed parity protocol ---

// parityDelta is the content of one parity-update message: the XOR delta
// for a target parity line (or the full new content under mirroring),
// optionally carrying a piggybacked header-line update for log entries.
type parityDelta struct {
	target arch.PhysLine
	delta  arch.Data
	step   Step
	line   arch.LineAddr

	auxValid  bool
	auxTarget arch.PhysLine
	auxDelta  arch.Data
	auxStep   Step
}

// parityUpdate is one parity update in flight, registered with its
// originating controller until the acknowledgment returns. The registry
// models the controller's transient-state buffers: on a fail-stop error,
// surviving controllers reconcile their in-flight updates during recovery
// Phase 1 (the messages are protected by error-detection codes, section
// 3.1.2); only updates whose originating or target controller died are
// genuinely lost, and those are exactly the cases the section 4.2 race
// arguments cover.
//
// It is a pooled record of the originator (DESIGN §4i). Its steps —
// message delivery, pipeline pass, parity write, acknowledgment — run one
// at a time, so next names the pending one and fireFn, bound once, runs
// it; xorFn and rmwDoneFn serve the read-XOR-write. A parity round trip
// allocates nothing.
type parityUpdate struct {
	parityDelta
	from *Controller // originator: ledger pay-down, free list, ack target
	at   *Controller // the parity line's home, which applies the update
	done func()
	next puStep

	fireFn    func()
	xorFn     func(*arch.Data)
	rmwDoneFn func(arch.Data)
}

// puStep names the pending step of a parity update.
type puStep uint8

const (
	puApply   puStep = iota // arrived at the parity home: take a pipeline pass
	puWrite                 // the pipeline pass is done: write the parity line
	puWritten               // the parity line is in memory
	puAck                   // the acknowledgment is back at the originator
)

func (p *parityUpdate) fire() {
	switch p.next {
	case puApply:
		p.next = puWrite
		p.at.ctx.At(p.at.dirs[p.at.node].Occupy(), p.fireFn)
	case puWrite:
		p.apply()
	case puWritten:
		p.written()
	case puAck:
		p.ack()
	}
}

// accrue records parity debt for a write of new over old at data line
// phys, at the instant the memory content changes.
func (c *Controller) accrue(phys arch.PhysLine, old, new arch.Data) {
	key := debtKey(c.topo.ParityOf(phys))
	d := c.debt[key]
	d.XOR(&old)
	d.XOR(&new)
	if d.IsZero() {
		delete(c.debt, key)
	} else {
		c.debt[key] = d
	}
}

// payDebt cancels delta from the ledger once the remote parity application
// has happened.
func (c *Controller) payDebt(target arch.PhysLine, delta arch.Data) {
	key := debtKey(target)
	d := c.debt[key]
	d.XOR(&delta)
	if d.IsZero() {
		delete(c.debt, key)
	} else {
		c.debt[key] = d
	}
}

// debtKey packs a parity line into the ledger's key: the node above its
// local memory address (under 48 bits). An integer key takes the map's
// fast hash path, and the packing sorts exactly like (node, frame,
// offset).
func debtKey(p arch.PhysLine) uint64 { return uint64(p.Node)<<48 | p.MemAddr() }

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
	keys := c.reconScratch[:0]
	for key := range c.debt {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		node, addr := arch.NodeID(key>>48), key&(1<<48-1)
		m := c.dirs[node].Mem()
		if m.LineLost(addr) {
			// Fully lost node, or the target parity line sits inside a
			// partially-lost range: either way the parity copy is gone
			// and will be rebuilt from data, so the delta is moot.
			c.st.ParityDebtsDropped++
			c.st.Trace.Instant(trace.ParityDebtDropped, int(c.node), addr)
			continue
		}
		delta := c.debt[key]
		cur := m.Peek(addr)
		cur.XOR(&delta)
		m.Poke(addr, cur)
	}
	c.reconScratch = keys[:0]
	clear(c.debt)
}

// DropPending discards the ledger (the controller itself was lost).
func (c *Controller) DropPending() {
	clear(c.debt)
}

// PendingDebts reports outstanding ledger entries (tests).
func (c *Controller) PendingDebts() int { return len(c.debt) }

// getUpdate takes a registration from the free list (allocating and
// binding one the first time); the acknowledgment step returns it. An
// update abandoned mid-flight — fabric loss, fail-stop freeze — simply
// never returns to the list.
func (c *Controller) getUpdate() *parityUpdate {
	if n := len(c.puFree); n > 0 {
		p := c.puFree[n-1]
		c.puFree[n-1] = nil
		c.puFree = c.puFree[:n-1]
		return p
	}
	p := &parityUpdate{from: c}
	p.fireFn, p.xorFn, p.rmwDoneFn = p.fire, p.xor, p.rmwDone
	return p
}

// sendParity transmits the update p (taken from getUpdate, its delta
// filled in) to the parity line's home node and runs done when the
// acknowledgment returns (Figure 4's messages 3 and 4). The caller's
// directory entry stays busy for the duration.
func (c *Controller) sendParity(p *parityUpdate, done func()) {
	c.tracker.Inc()
	c.st.Trace.AsyncBegin(trace.ParityUpdate, int(c.node), uint64(p.line))
	p.done, p.next = done, puApply
	p.at = c.peers[p.target.Node]
	c.net.Send(network.Message{
		Src: c.node, Dst: p.target.Node, Bytes: network.DataBytes, Class: stats.ClassParity,
		Deliver: p.fireFn,
	})
}

// apply runs at the parity line's home after its pipeline pass: the
// read-XOR-write of the parity line (the same XOR functionally under
// mirroring, where the "parity" is a copy and the reads are skipped — only
// the timing differs). Each application pays down the originator's ledger
// at the instant the parity content changes.
func (p *parityUpdate) apply() {
	c := p.at
	m := c.dirs[c.node].Mem()
	newVal := m.Peek(p.target.MemAddr())
	newVal.XOR(&p.delta)
	p.from.payDebt(p.target, p.delta)
	p.next = puWritten
	if c.topo.MirroredFrame(p.target.Frame) {
		c.st.Mem(stats.ClassParity)
		m.Write(p.target.MemAddr(), newVal, p.fireFn)
		return
	}
	c.st.Mem(stats.ClassParity)
	c.st.Mem(stats.ClassParity)
	m.ReadModifyWrite(p.target.MemAddr(), p.xorFn, p.rmwDoneFn)
}

func (p *parityUpdate) xor(d *arch.Data) { d.XOR(&p.delta) }

func (p *parityUpdate) rmwDone(arch.Data) { p.written() }

// written runs when the parity line is in memory: the piggybacked header
// update follows — strictly after the data parity, per the
// atomic-log-update race rule — then the acknowledgment.
func (p *parityUpdate) written() {
	c := p.at
	if c.hookAbort(p.step, p.line) {
		return
	}
	if p.auxValid {
		m := c.dirs[c.node].Mem()
		c.applyDelta(m, p.auxTarget, p.auxDelta)
		p.from.payDebt(p.auxTarget, p.auxDelta)
		if c.hookAbort(p.auxStep, p.line) {
			return // frozen at the aux step: the ack dies in flight
		}
	}
	p.next = puAck
	p.from.net.Send(network.Message{
		Src: p.target.Node, Dst: p.from.node, Bytes: network.ControlBytes,
		Class:   stats.ClassParity,
		Deliver: p.fireFn,
	})
}

// ack runs at the originator when the acknowledgment arrives: the last
// step, so the registration goes back to the free list before done runs.
func (p *parityUpdate) ack() {
	c := p.from
	c.st.Trace.AsyncEnd(trace.ParityUpdate, int(c.node), uint64(p.line))
	c.tracker.Dec()
	done := p.done
	p.done = nil
	c.puFree = append(c.puFree, p)
	done()
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
// copy equals the old data).
func (c *Controller) pokeWithParity(p arch.PhysLine, newData arch.Data) {
	m := c.dirs[p.Node].Mem()
	delta := m.Peek(p.MemAddr())
	m.Poke(p.MemAddr(), newData)
	delta.XOR(&newData)
	par := c.topo.ParityOf(p)
	pmem := c.dirs[par.Node].Mem()
	if pmem.LineLost(par.MemAddr()) {
		return // the parity copy is gone; phase 4 will rebuild the group
	}
	cur := pmem.Peek(par.MemAddr())
	cur.XOR(&delta)
	pmem.Poke(par.MemAddr(), cur)
}
