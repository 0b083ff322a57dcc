package coherence

import (
	"fmt"

	"revive/internal/arch"
	"revive/internal/mem"
	"revive/internal/network"
	"revive/internal/sim"
	"revive/internal/stats"
)

// dirState is the stable directory state of a line at its home.
type dirState uint8

const (
	dirUncached dirState = iota // no cached copies
	dirShared                   // read-only copies at `sharers`
	dirExcl                     // single (possibly dirty) copy at `owner`
)

// reqKind tags a request in a directory entry's pending queue.
type reqKind uint8

const (
	reqGETS reqKind = iota
	reqGETX
	reqUPG
	reqWB
	reqRepl
	// Arrival-only kinds: answers to the line's active transaction,
	// never queued.
	respFetch
	respInvAck
)

// pendingReq is one queued request for a busy line. Typed (rather than an
// opaque closure) so that a transaction waiting for the owner's data can
// find and consume a queued eviction from that owner.
type pendingReq struct {
	kind reqKind
	req  arch.NodeID
	data arch.Data
	ckp  bool
	keep bool
}

// evictKind tags the message that answers a transaction's wait for the
// owner's copy.
type evictKind uint8

const (
	evFetchResp evictKind = iota // intervention answered from the owner's cache
	evWB                         // owner's write-back crossed the intervention
	evRepl                       // owner's clean replacement hint crossed it
)

// ownerData is the answer a transaction receives when it asked the owner
// for a line: either the intervention response, or — when the probe missed
// because the owner evicted the line concurrently — the eviction message
// itself, consumed by the waiting transaction.
type ownerData struct {
	kind  evictKind
	dirty bool
	data  arch.Data
	ckp   bool // consumed WB was checkpoint-flush traffic
}

// dirEntry is the per-line directory state plus transaction serialization.
type dirEntry struct {
	state   dirState
	sharers SharerSet
	owner   arch.NodeID

	busy    bool
	waiting []pendingReq

	// Active-transaction continuations. ownerWait is non-nil while the
	// transaction waits for data from the owner (a crossing WB/REPL from
	// that owner is consumed by it); invWait counts outstanding
	// invalidation acknowledgments.
	ownerWait     func(ownerData)
	ownerWaitNode arch.NodeID
	// staleProbeResp counts probe responses that are still in flight but
	// already answered by a crossing eviction message (the eviction is
	// FIFO-ordered ahead of the probe's miss response, so the response
	// must be discarded when it arrives).
	staleProbeResp int
	invWait        int
	invDone        func()
}

// DirCtrl is one node's home directory controller: it serializes all
// transactions for lines homed at this node, drives the local memory, and
// invokes the ReVive extension hooks at the protocol points of Figures 4
// and 5 of the paper.
//
// Protocol state changes take effect at message arrival; timing (pipeline
// occupancy, memory latency, network latency) only delays the visible
// completions. This keeps state transitions atomic in arrival order, which
// is what the real controller's serialization guarantees.
type DirCtrl struct {
	ctx     *sim.Ctx
	node    arch.NodeID
	cfg     DirConfig
	mem     *mem.Memory
	net     network.Fabric
	amap    *arch.AddressMap
	st      *stats.Stats
	tracker *Tracker
	ext     Extension
	flow    FlowObserver
	caches  []*CacheCtrl
	pipe    *sim.Resource
	entries map[arch.LineAddr]*dirEntry

	// arrFree and txnFree are the free lists of message arrivals and
	// transactions (DESIGN §4i). Both are taken and returned only by this
	// node's events; the checkpoint commit empties them (DropFreeLists).
	arrFree []*arrival
	txnFree []*txn

	// DroppedWBKeep counts checkpoint write-backs that arrived after
	// ownership had already migrated (benign race; the data traveled
	// with the intervention instead).
	DroppedWBKeep uint64
}

// NewDirCtrl builds the home controller for one node. Wire the cache
// controllers afterwards with SetCaches.
func NewDirCtrl(ctx *sim.Ctx, node arch.NodeID, cfg DirConfig, m *mem.Memory,
	net network.Fabric, amap *arch.AddressMap, st *stats.Stats, tracker *Tracker) *DirCtrl {
	return &DirCtrl{
		ctx: ctx, node: node, cfg: cfg, mem: m, net: net, amap: amap,
		st: st, tracker: tracker,
		pipe:    sim.NewResource(ctx.Engine()),
		entries: make(map[arch.LineAddr]*dirEntry),
	}
}

// SetCaches wires the machine's cache controllers (indexed by node).
func (d *DirCtrl) SetCaches(caches []*CacheCtrl) { d.caches = caches }

// SetExtension installs the ReVive hooks. nil is the baseline machine.
func (d *DirCtrl) SetExtension(ext Extension) { d.ext = ext }

// SetFlowObserver installs the data-flow observer (conelog's dependence
// tracker). nil — the default — observes nothing.
func (d *DirCtrl) SetFlowObserver(f FlowObserver) { d.flow = f }

// Node returns the controller's node.
func (d *DirCtrl) Node() arch.NodeID { return d.node }

// Mem returns the node's local memory (the ReVive extension drives it for
// log writes and parity updates).
func (d *DirCtrl) Mem() *mem.Memory { return d.mem }

// Occupy books one pass through the controller pipeline and returns the
// completion time. The ReVive parity handler at a parity page's home uses
// this, so parity updates contend with regular directory work exactly as
// in the paper.
func (d *DirCtrl) Occupy() sim.Time {
	return d.pipe.Reserve(d.cfg.Occupancy) + d.cfg.Latency
}

func (d *DirCtrl) entry(line arch.LineAddr) *dirEntry {
	e := d.entries[line]
	if e == nil {
		e = &dirEntry{}
		d.entries[line] = e
	}
	return e
}

// Entries returns the number of directory entries materialized.
func (d *DirCtrl) Entries() int { return len(d.entries) }

// dispatch starts pr as the line's active transaction, or queues it.
func (d *DirCtrl) dispatch(line arch.LineAddr, pr pendingReq) {
	e := d.entry(line)
	if e.busy {
		e.waiting = append(e.waiting, pr)
		return
	}
	e.busy = true
	d.tracker.Inc()
	d.run(line, e, pr)
}

func (d *DirCtrl) run(line arch.LineAddr, e *dirEntry, pr pendingReq) {
	t := d.getTxn(line, e, pr.req)
	switch pr.kind {
	case reqGETS:
		t.gets()
	case reqGETX:
		t.getx()
	case reqUPG:
		t.upg()
	case reqWB:
		t.wb(pr.data, pr.ckp, pr.keep)
	case reqRepl:
		t.repl()
	}
}

// release ends the line's active transaction t and starts the next queued
// request, if any. It is the transaction's last step: t goes back to the
// free list here, and every caller returns right after.
func (d *DirCtrl) release(t *txn) {
	line, e := t.line, t.e
	if !e.busy {
		panic("coherence: release of idle entry")
	}
	if e.ownerWait != nil || e.invWait != 0 {
		panic("coherence: release with pending continuations")
	}
	e.busy = false
	d.tracker.Dec()
	d.txnFree = append(d.txnFree, t)
	if len(e.waiting) > 0 {
		// Pop the head in place, so the queue reuses its backing array.
		next := e.waiting[0]
		e.waiting = e.waiting[:copy(e.waiting, e.waiting[1:])]
		e.busy = true
		d.tracker.Inc()
		d.run(line, e, next)
	}
}

func (d *DirCtrl) phys(line arch.LineAddr) arch.PhysLine {
	p, ok := d.amap.LookupLine(line)
	if !ok || p.Node != d.node {
		panic(fmt.Sprintf("coherence: node %d is not home of line %#x", d.node, line))
	}
	return p
}

// sendToCache delivers a protocol action at dst's cache controller after
// one controller-pipeline pass and the network latency.
func (d *DirCtrl) sendToCache(dst arch.NodeID, bytes int, class stats.Class, fn func()) {
	d.net.Send(network.Message{Src: d.node, Dst: dst, Bytes: bytes, Class: class, Deliver: fn})
}

// feedOwnerWait hands the waiting transaction its answer. When the answer
// is a crossing eviction message (not the probe response itself), the
// probe's eventual miss response becomes stale and will be discarded.
func (d *DirCtrl) feedOwnerWait(line arch.LineAddr, od ownerData) {
	e := d.entry(line)
	w := e.ownerWait
	e.ownerWait = nil
	if od.kind != evFetchResp {
		e.staleProbeResp++
	}
	w(od)
}

// --- request entry points (called from network Deliver closures) ---

// arrival is one message that reached this home directory and waits for
// its controller-pipeline pass. It is a pooled record (DESIGN §4i): fire
// is bound once, so scheduling an arrival does not allocate, and it
// returns the record to the free list before handling the message.
type arrival struct {
	d            *DirCtrl
	kind         reqKind
	from         arch.NodeID // requester or responding owner
	line         arch.LineAddr
	data         arch.Data
	ckp, keep    bool // write-back: checkpoint traffic, owner keeps a copy
	found, dirty bool // fetch response: the owner had the line, dirty
	fireFn       func()
}

// arrival takes a record from the free list (allocating and binding one
// the first time); schedule it once its message fields are set.
func (d *DirCtrl) arrival(kind reqKind, from arch.NodeID, line arch.LineAddr) *arrival {
	var a *arrival
	if n := len(d.arrFree); n > 0 {
		a = d.arrFree[n-1]
		d.arrFree[n-1] = nil
		d.arrFree = d.arrFree[:n-1]
	} else {
		a = &arrival{d: d}
		a.fireFn = a.fire
	}
	a.kind, a.from, a.line = kind, from, line
	return a
}

// schedule runs the arrival after one controller-pipeline pass.
func (a *arrival) schedule() { a.d.ctx.At(a.d.Occupy(), a.fireFn) }

func (a *arrival) fire() {
	d, kind, from, line, data := a.d, a.kind, a.from, a.line, a.data
	ckp, keep, found, dirty := a.ckp, a.keep, a.found, a.dirty
	d.arrFree = append(d.arrFree, a)
	switch kind {
	case reqWB:
		d.wbArrived(from, line, data, ckp, keep)
	case reqRepl:
		d.replArrived(from, line)
	case respFetch:
		d.fetchRespArrived(from, line, found, dirty, data)
	case respInvAck:
		d.invAckArrived(line)
	default:
		d.dispatch(line, pendingReq{kind: kind, req: from})
	}
}

// GETS handles a read miss request from node req.
func (d *DirCtrl) GETS(req arch.NodeID, line arch.LineAddr) { d.arrival(reqGETS, req, line).schedule() }

// GETX handles a read-exclusive (write miss) request from node req.
func (d *DirCtrl) GETX(req arch.NodeID, line arch.LineAddr) { d.arrival(reqGETX, req, line).schedule() }

// UPG handles an upgrade (write hit on a shared line) request.
func (d *DirCtrl) UPG(req arch.NodeID, line arch.LineAddr) { d.arrival(reqUPG, req, line).schedule() }

// WB handles a write-back. keep=false is an eviction (the owner gives the
// line up); keep=true is a checkpoint-flush write-back where the owner
// retains a clean exclusive copy. ckp marks checkpoint traffic.
func (d *DirCtrl) WB(req arch.NodeID, line arch.LineAddr, data arch.Data, ckp, keep bool) {
	a := d.arrival(reqWB, req, line)
	a.data, a.ckp, a.keep = data, ckp, keep
	a.schedule()
}

func (d *DirCtrl) wbArrived(req arch.NodeID, line arch.LineAddr, data arch.Data, ckp, keep bool) {
	e := d.entry(line)
	// A write-back crossing an intervention in flight is consumed by the
	// waiting transaction as the owner's answer. The evictor is still
	// acknowledged (it tracks the write-back as outstanding).
	if e.ownerWait != nil && e.ownerWaitNode == req && !keep {
		d.ackWB(req, line, ckp)
		d.feedOwnerWait(line, ownerData{kind: evWB, dirty: true, data: data, ckp: ckp})
		return
	}
	d.dispatch(line, pendingReq{kind: reqWB, req: req, data: data, ckp: ckp, keep: keep})
}

// Repl handles a clean-exclusive replacement hint.
func (d *DirCtrl) Repl(req arch.NodeID, line arch.LineAddr) { d.arrival(reqRepl, req, line).schedule() }

func (d *DirCtrl) replArrived(req arch.NodeID, line arch.LineAddr) {
	e := d.entry(line)
	if e.ownerWait != nil && e.ownerWaitNode == req {
		d.feedOwnerWait(line, ownerData{kind: evRepl})
		return
	}
	d.dispatch(line, pendingReq{kind: reqRepl, req: req})
}

// fetchResp delivers an intervention answer to the waiting transaction.
func (d *DirCtrl) fetchResp(from arch.NodeID, line arch.LineAddr, found, dirty bool, data arch.Data) {
	a := d.arrival(respFetch, from, line)
	a.found, a.dirty, a.data = found, dirty, data
	a.schedule()
}

func (d *DirCtrl) fetchRespArrived(from arch.NodeID, line arch.LineAddr, found, dirty bool, data arch.Data) {
	e := d.entry(line)
	if e.ownerWait == nil || e.ownerWaitNode != from {
		if e.staleProbeResp > 0 && !found {
			// The transaction already consumed the owner's crossing
			// eviction; this is the probe's late miss response.
			e.staleProbeResp--
			return
		}
		panic("coherence: unexpected fetch response")
	}
	if found {
		d.feedOwnerWait(line, ownerData{kind: evFetchResp, dirty: dirty, data: data})
		return
	}
	// The owner evicted concurrently. Its WB or Repl either already sits
	// in this line's queue (it arrived while the entry was busy) or is
	// still in flight (it will be consumed on arrival).
	for i, pr := range e.waiting {
		if pr.req != from || (pr.kind != reqWB && pr.kind != reqRepl) || pr.keep {
			continue
		}
		e.waiting = append(e.waiting[:i], e.waiting[i+1:]...)
		if pr.kind == reqWB {
			d.ackWB(from, line, pr.ckp)
		}
		w := e.ownerWait
		e.ownerWait = nil
		if pr.kind == reqWB {
			w(ownerData{kind: evWB, dirty: true, data: pr.data, ckp: pr.ckp})
		} else {
			w(ownerData{kind: evRepl})
		}
		return
	}
	// Keep waiting: the eviction message is still in flight and will be
	// consumed on arrival (this response itself resolves nothing).
}

// invAck delivers one invalidation acknowledgment to the waiting
// transaction.
func (d *DirCtrl) invAck(line arch.LineAddr) { d.arrival(respInvAck, 0, line).schedule() }

func (d *DirCtrl) invAckArrived(line arch.LineAddr) {
	e := d.entry(line)
	if e.invWait <= 0 {
		panic("coherence: unexpected invalidation ack")
	}
	e.invWait--
	if e.invWait == 0 {
		fn := e.invDone
		e.invDone = nil
		fn()
	}
}

// --- transaction bodies (run with the entry busy) ---

// txn is the active transaction of a busy directory entry. A busy entry
// runs exactly one, so its continuations — the memory reply, the owner's
// answer, the invalidations' completion, and the ReVive extension's
// acknowledgment and release — are steps of one pooled record
// (DESIGN §4i). They run one at a time: next names the pending step, and
// one continuation per callback signature, bound once when the record is
// first allocated, runs it. dispatch takes the record and release returns
// it.
type txn struct {
	d    *DirCtrl
	e    *dirEntry
	line arch.LineAddr
	req  arch.NodeID
	// owner is the node a GETS downgrades (it stays a sharer).
	owner arch.NodeID
	// fill is the pending memory reply's fill state; inv marks the
	// pending probe as invalidating (GETX) rather than downgrading
	// (GETS); ckp marks the write-back being written as checkpoint
	// traffic.
	fill cacheFill
	next txnStep
	inv  bool
	ckp  bool
	// memAck is the baseline memory write's acknowledgment.
	memAck func()

	fireFn       func()
	replyFn      func(arch.Data)
	answerFn     func(ownerData)
	ackWBFn      func()
	memWrittenFn func()
}

// txnStep names the step a transaction runs when its pending memory
// reply, invalidations or memory write complete.
type txnStep uint8

const (
	txnOwn       txnStep = iota // the requester becomes the exclusive owner; end
	txnShare                    // the requester joins the sharers; end
	txnOwnIntent                // the requester becomes the owner; run the hook
	txnReplyTake                // sharers invalidated: reply from memory, then txnTake
	txnTake                     // the requester replaces the sharers as owner; run the hook
	txnUpgrade                  // sharers invalidated: grant the upgrade; run the hook
	txnIntent                   // run the Figure 5(a) hook
	txnRelease                  // end the transaction
)

func (d *DirCtrl) getTxn(line arch.LineAddr, e *dirEntry, req arch.NodeID) *txn {
	var t *txn
	if n := len(d.txnFree); n > 0 {
		t = d.txnFree[n-1]
		d.txnFree[n-1] = nil
		d.txnFree = d.txnFree[:n-1]
	} else {
		t = &txn{d: d}
		t.fireFn, t.replyFn, t.answerFn = t.fire, t.reply, t.answer
		t.ackWBFn, t.memWrittenFn = t.ackWB, t.memWritten
	}
	t.line, t.e, t.req = line, e, req
	return t
}

// then sets the step that follows and returns the continuation that runs
// it, for callers that take a plain func().
func (t *txn) then(step txnStep) func() {
	t.next = step
	return t.fireFn
}

func (t *txn) fire() {
	d, e := t.d, t.e
	switch t.next {
	case txnOwn:
		e.state, e.owner = dirExcl, t.req
		d.release(t)
	case txnShare:
		e.sharers.Add(t.req)
		d.release(t)
	case txnOwnIntent:
		e.state, e.owner = dirExcl, t.req
		d.writeIntent(t)
	case txnReplyTake:
		d.replyFromMemory(t, cacheFillModified, txnTake)
	case txnTake:
		e.state, e.owner = dirExcl, t.req
		e.sharers.Clear()
		d.writeIntent(t)
	case txnUpgrade:
		t.upgrade()
	case txnIntent:
		d.writeIntent(t)
	case txnRelease:
		d.release(t)
	}
}

func (t *txn) reply(data arch.Data) {
	t.d.reply(t.req, t.line, t.fill, data)
	t.fire()
}

func (t *txn) answer(od ownerData) {
	if t.inv {
		t.getxAnswer(od)
	} else {
		t.getsAnswer(od)
	}
}

func (t *txn) ackWB() { t.d.ackWB(t.req, t.line, t.ckp) }

func (t *txn) memWritten() {
	t.memAck()
	t.fire()
}

// noAck is the acknowledgment of a memory write nobody waits for (the
// write-back data a transaction consumed from the owner).
func noAck() {}

func (t *txn) gets() {
	d, e := t.d, t.e
	if d.flow != nil {
		d.flow.ObserveRead(t.req, t.line)
	}
	switch e.state {
	case dirUncached:
		d.replyFromMemory(t, cacheFillExclusive, txnOwn)
	case dirShared:
		d.replyFromMemory(t, cacheFillShared, txnShare)
	case dirExcl:
		if e.owner == t.req {
			panic("coherence: GETS from current owner")
		}
		t.owner = e.owner
		d.probeOwner(t, t.owner, false)
	}
}

func (t *txn) getsAnswer(od ownerData) {
	d, e, req, line := t.d, t.e, t.req, t.line
	switch od.kind {
	case evFetchResp:
		d.reply(req, line, cacheFillShared, od.data)
		e.state = dirShared
		e.sharers.Clear()
		e.sharers.Add(t.owner)
		e.sharers.Add(req)
		if od.dirty {
			// Sharing write-back: the owner's dirty data is written to
			// memory — a memory write, so ReVive logs and updates
			// parity (section 3.2.1).
			d.writeMemory(t, od.data, false, noAck, txnRelease)
			return
		}
		d.release(t)
	case evWB:
		// Owner gave the line up; requester becomes exclusive.
		d.reply(req, line, cacheFillExclusive, od.data)
		e.state, e.owner = dirExcl, req
		d.writeMemory(t, od.data, od.ckp, noAck, txnRelease)
	case evRepl:
		d.replyFromMemory(t, cacheFillExclusive, txnOwn)
	}
}

func (t *txn) getx() {
	d, e := t.d, t.e
	if d.flow != nil {
		d.flow.ObserveWrite(t.req, t.line)
	}
	switch e.state {
	case dirUncached:
		d.replyFromMemory(t, cacheFillModified, txnOwnIntent)
	case dirShared:
		d.invalidateSharers(t.line, e.sharers.CopyWithout(t.req), t.then(txnReplyTake))
	case dirExcl:
		if e.owner == t.req {
			panic("coherence: GETX from current owner")
		}
		d.probeOwner(t, e.owner, true)
	}
}

func (t *txn) getxAnswer(od ownerData) {
	d, e, req, line := t.d, t.e, t.req, t.line
	switch od.kind {
	case evFetchResp:
		// Ownership transfer: memory is not written. The checkpoint
		// content stays in memory; it was logged when the first writer
		// took ownership, or will be logged at the eventual write-back
		// (Figure 5(b)).
		d.reply(req, line, cacheFillModified, od.data)
		e.state, e.owner = dirExcl, req
		d.writeIntent(t)
	case evWB:
		d.reply(req, line, cacheFillModified, od.data)
		e.state, e.owner = dirExcl, req
		d.writeMemory(t, od.data, od.ckp, noAck, txnIntent)
	case evRepl:
		d.replyFromMemory(t, cacheFillModified, txnOwnIntent)
	}
}

func (t *txn) upg() {
	d, e := t.d, t.e
	if e.state != dirShared || !e.sharers.Has(t.req) {
		// The requester's shared copy is gone (invalidated by an
		// earlier-serialized write): fall back to a full read-exclusive.
		t.getx()
		return
	}
	if d.flow != nil {
		// The fallback above reaches getx, which observes for itself;
		// only the successful upgrade is recorded here.
		d.flow.ObserveWrite(t.req, t.line)
	}
	d.invalidateSharers(t.line, e.sharers.CopyWithout(t.req), t.then(txnUpgrade))
}

// upgrade runs once the sharers are invalidated. Upgrade permission is
// granted immediately (Figure 5(a)); no data reply is needed.
func (t *txn) upgrade() {
	d, req, line := t.d, t.req, t.line
	t.e.state, t.e.owner = dirExcl, req
	t.e.sharers.Clear()
	d.sendToCache(req, network.ControlBytes, stats.ClassRead, func() {
		d.caches[req].upgAck(line)
	})
	d.writeIntent(t)
}

func (t *txn) wb(data arch.Data, ckp, keep bool) {
	d, e, req, line := t.d, t.e, t.req, t.line
	if e.state != dirExcl || e.owner != req {
		if keep {
			// Ownership migrated while the checkpoint write-back was
			// in flight; the data traveled with the intervention.
			d.DroppedWBKeep++
			d.ackWB(req, line, ckp)
			d.release(t)
			return
		}
		panic(fmt.Sprintf("coherence: WB from non-owner (state=%d owner=%d req=%d)",
			e.state, e.owner, req))
	}
	if !keep {
		e.state, e.owner = dirUncached, 0
	}
	// Acknowledgment point: after the data write (Figure 4), delayed by
	// logging in the not-yet-logged case (Figure 5(b)).
	t.ckp = ckp
	d.writeMemory(t, data, ckp, t.ackWBFn, txnRelease)
}

func (t *txn) repl() {
	e, req := t.e, t.req
	switch {
	case e.state == dirExcl && e.owner == req:
		e.state, e.owner = dirUncached, 0
	case e.state == dirShared:
		e.sharers.Remove(req)
		if e.sharers.Empty() {
			e.state = dirUncached
		}
	}
	t.d.release(t)
}

// --- building blocks ---

func wbClass(ckp bool) stats.Class {
	if ckp {
		return stats.ClassCkpWB
	}
	return stats.ClassExeWB
}

func (d *DirCtrl) ackWB(req arch.NodeID, line arch.LineAddr, ckp bool) {
	d.sendToCache(req, network.ControlBytes, wbClass(ckp), func() {
		d.caches[req].wbAck(line)
	})
}

// replyFromMemory reads the line from local memory and sends it to the
// requester with fill, then runs step then (at reply time; the entry's
// fate is the caller's concern).
func (d *DirCtrl) replyFromMemory(t *txn, fill cacheFill, then txnStep) {
	d.st.Mem(stats.ClassRead)
	t.fill, t.next = fill, then
	d.mem.Read(d.phys(t.line).MemAddr(), t.replyFn)
}

// reply sends a data reply to the requester's cache controller.
func (d *DirCtrl) reply(req arch.NodeID, line arch.LineAddr, fill cacheFill, data arch.Data) {
	d.sendToCache(req, network.DataBytes, stats.ClassRead, func() {
		d.caches[req].fill(line, fill, data)
	})
}

// probeOwner sends an intervention (inv=false: downgrading fetch, inv=true:
// invalidating fetch) and parks the transaction until the owner's answer —
// or a crossing eviction message — arrives.
func (d *DirCtrl) probeOwner(t *txn, owner arch.NodeID, inv bool) {
	line := t.line
	t.inv = inv
	t.e.ownerWait = t.answerFn
	t.e.ownerWaitNode = owner
	d.sendToCache(owner, network.ControlBytes, stats.ClassRead, func() {
		d.caches[owner].probe(line, inv, d.node)
	})
}

// invalidateSharers sends invalidations to every node in mask and runs done
// once all acknowledgments are in. An empty mask completes immediately.
// The mask must be an independent copy (SharerSet.CopyWithout): the
// continuation typically clears the entry's own set while these
// invalidations are still in flight.
func (d *DirCtrl) invalidateSharers(line arch.LineAddr, mask SharerSet, done func()) {
	e := d.entry(line)
	count := mask.Count()
	if count == 0 {
		done()
		return
	}
	e.invWait = count
	e.invDone = done
	mask.ForEach(func(dst arch.NodeID) {
		d.sendToCache(dst, network.ControlBytes, stats.ClassRead, func() {
			d.caches[dst].inval(line, d.node)
		})
	})
}

// writeMemory performs the (possibly ReVive-extended) memory write, then
// runs step then: in the baseline it is a plain DRAM write; with the
// extension installed it is the full log-then-write-then-parity sequence
// of Figures 4 and 5(b).
func (d *DirCtrl) writeMemory(t *txn, data arch.Data, ckp bool, ack func(), then txnStep) {
	phys := d.phys(t.line)
	t.next = then
	if d.ext == nil {
		d.st.Mem(wbClass(ckp))
		t.memAck = ack
		d.mem.Write(phys.MemAddr(), data, t.memWrittenFn)
		return
	}
	d.ext.Write(t.line, phys, data, ckp, ack, t.fireFn)
}

// writeIntent runs the Figure 5(a) hook after an exclusive grant and
// releases the entry when the background logging completes.
func (d *DirCtrl) writeIntent(t *txn) {
	if d.ext == nil {
		d.release(t)
		return
	}
	d.ext.WriteIntent(t.line, d.phys(t.line), t.then(txnRelease))
}

// StateOf reports the directory's view of a line (for tests and invariant
// checks).
func (d *DirCtrl) StateOf(line arch.LineAddr) (state string, owner arch.NodeID, sharers SharerSet, busy bool) {
	e := d.entries[line]
	if e == nil {
		return "uncached", 0, SharerSet{}, false
	}
	switch e.state {
	case dirUncached:
		state = "uncached"
	case dirShared:
		state = "shared"
	case dirExcl:
		state = "exclusive"
	}
	return state, e.owner, e.sharers, e.busy
}

// DropFreeLists empties the free lists of arrivals and transactions. Call
// it only at a quiescent point, when no arrival or transaction is in
// flight (the checkpoint commit).
func (d *DirCtrl) DropFreeLists() { d.arrFree, d.txnFree = nil, nil }

// Reset drops all directory entries and transaction state (recovery
// Phase 1 "invalidating the caches and directory entries").
func (d *DirCtrl) Reset() {
	d.entries = make(map[arch.LineAddr]*dirEntry)
}

// EntryView is a read-only snapshot of one directory entry for invariant
// checking. Sharers shares the entry's overflow words, so the view is only
// valid within the ForEachEntry callback that produced it.
type EntryView struct {
	Line    arch.LineAddr
	State   string // "uncached", "shared", "exclusive"
	Owner   arch.NodeID
	Sharers SharerSet
	Busy    bool
}

// ForEachEntry visits every materialized directory entry.
func (d *DirCtrl) ForEachEntry(fn func(EntryView)) {
	for line, e := range d.entries {
		v := EntryView{Line: line, Owner: e.owner, Sharers: e.sharers, Busy: e.busy}
		switch e.state {
		case dirUncached:
			v.State = "uncached"
		case dirShared:
			v.State = "shared"
		case dirExcl:
			v.State = "exclusive"
		}
		fn(v)
	}
}
