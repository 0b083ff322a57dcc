package coherence

import (
	"encoding/binary"
	"fmt"

	"revive/internal/arch"
	"revive/internal/cache"
	"revive/internal/network"
	"revive/internal/sim"
	"revive/internal/stats"
	"revive/internal/trace"
)

// cacheFill tags the permission granted with a data reply.
type cacheFill uint8

const (
	cacheFillShared    cacheFill = iota // read-only copy
	cacheFillExclusive                  // clean exclusive copy (MESI E)
	cacheFillModified                   // writable copy (requester will dirty it)
)

// mshr tracks one outstanding request for a line. Loads are bound to the
// fill: they complete from the arriving data, so an invalidation racing the
// reply cannot starve them. Store progress is guaranteed the same way: the
// store-buffer head retires at reply arrival (see retireHeadStoreIfReady)
// before any later-arriving probe can steal the line — the classic
// window-of-vulnerability closure. retries are drain continuations that
// re-examine the cache (used when the granted permission may still be
// insufficient, e.g. a shared fill answering a store).
type mshr struct {
	loadDone []func()
	retries  []func()
}

// sbEntry is one pending store in the store buffer.
type sbEntry struct {
	addr arch.Addr
	val  uint64
}

// CacheCtrl is one node's processor-side controller: the L1/L2 hierarchy
// (inclusive, write-back), the store buffer, outstanding-miss bookkeeping,
// and the cache half of the coherence protocol. The L2 holds the node's
// only copy of each line's bytes; the tag-only L1 links into it.
type CacheCtrl struct {
	ctx     *sim.Ctx
	node    arch.NodeID
	l1      *cache.Tags
	l2      *cache.Cache
	bus     *sim.Resource
	busCfg  BusConfig
	net     network.Fabric
	amap    *arch.AddressMap
	st      *stats.Stats
	tracker *Tracker
	dirs    []*DirCtrl

	pending  map[arch.LineAddr]*mshr
	mshrFree []*mshr // retired MSHRs for reuse (keeps the miss path allocation-free)

	// drainHeadFn and flushIssueFn are the bound drain and flush
	// continuations, allocated once: a method value like c.drainHead
	// allocates a fresh closure at every evaluation, and the drain chain
	// schedules one per retired store.
	drainHeadFn, flushIssueFn func()
	sendFree                  []*sendOp // retired bus sends for reuse

	// Store buffer (Table 3: 16 pending stores). Entries live in
	// sb[sbHead:]; popping advances the head instead of reslicing so the
	// backing array is reused rather than regrown on every drain cycle.
	sb     []sbEntry
	sbHead int
	sbCap  int
	// At most one store can stall on a full buffer (the processor blocks
	// until it is accepted), so its operands live in fields and the retry
	// is a plain method call — no per-stall closure.
	sbStalled   bool
	stalledAddr arch.Addr
	stalledVal  uint64
	stalledDone func()
	// draining is set while a drain chain is live (a drainHead event is
	// scheduled or a request's retry will resume it). drainAt is when the
	// chain's last retirement frees the L1 port: a chain that emptied the
	// buffer stops there instead of scheduling one more drainHead to find
	// it empty, and the next store resumes it inline or at drainAt.
	draining bool
	drainAt  sim.Time

	// Checkpoint flush state.
	flushQueue    []arch.LineAddr
	flushHead     int // next flushQueue entry to issue
	flushInflight int
	flushDone     func()
	flushing      map[arch.LineAddr]bool

	// Fills counts data replies received (for traffic cross-checks).
	Fills uint64
}

// NewCacheCtrl builds one node's cache controller. ctx schedules every
// event the controller raises.
func NewCacheCtrl(ctx *sim.Ctx, node arch.NodeID, l1Cfg, l2Cfg cache.Config,
	busCfg BusConfig, net network.Fabric, amap *arch.AddressMap,
	st *stats.Stats, tracker *Tracker) *CacheCtrl {
	engine := ctx.Engine()
	c := &CacheCtrl{
		ctx: ctx, node: node,
		l1: cache.NewTags(engine, l1Cfg), l2: cache.New(engine, l2Cfg),
		bus: sim.NewResource(engine), busCfg: busCfg,
		net: net, amap: amap, st: st, tracker: tracker,
		pending:  make(map[arch.LineAddr]*mshr),
		sbCap:    16,
		flushing: make(map[arch.LineAddr]bool),
	}
	c.drainHeadFn, c.flushIssueFn = c.drainHead, c.flushIssue
	return c
}

// SetDirs wires the machine's directory controllers (indexed by node).
func (c *CacheCtrl) SetDirs(dirs []*DirCtrl) { c.dirs = dirs }

// Node returns the controller's node.
func (c *CacheCtrl) Node() arch.NodeID { return c.node }

// L1 and L2 expose the cache levels (for statistics and tests).
func (c *CacheCtrl) L1() *cache.Tags  { return c.l1 }
func (c *CacheCtrl) L2() *cache.Cache { return c.l2 }

// Line returns a copy of the node's copy of line (its L2 way, Modified if
// either level is), or nil if the node does not cache it.
func (c *CacheCtrl) Line(line arch.LineAddr) *cache.Line {
	l2l := c.l2.Probe(line)
	if l2l == nil {
		return nil
	}
	cp := *l2l
	if r := c.l1.Probe(line); r != nil && r.State == cache.Modified {
		cp.State = cache.Modified
	}
	return &cp
}

// DirtyLines counts the distinct lines the node holds dirty: Modified in
// L2, or Modified in L1 over a clean L2 way.
func (c *CacheCtrl) DirtyLines() int { return c.l2.DirtyCount() + c.l1.DirtyOnly() }

// PendingOps reports in-flight processor-side work: outstanding misses plus
// buffered stores. The checkpoint sequence waits for zero before flushing.
func (c *CacheCtrl) PendingOps() int { return len(c.pending) + c.sbLen() }

// sbLen is the number of buffered stores.
func (c *CacheCtrl) sbLen() int { return len(c.sb) - c.sbHead }

// sbPop retires the head store, recycling the backing array once it
// empties (or compacting when the dead prefix reaches the buffer's
// capacity, so the array never grows past ~2x the store-buffer depth).
func (c *CacheCtrl) sbPop() {
	c.sbHead++
	if c.sbHead == len(c.sb) {
		c.sb, c.sbHead = c.sb[:0], 0
	} else if c.sbHead >= c.sbCap {
		n := copy(c.sb, c.sb[c.sbHead:])
		c.sb, c.sbHead = c.sb[:n], 0
	}
}

// home returns the line's home node, placing the page on first touch.
func (c *CacheCtrl) home(line arch.LineAddr) arch.NodeID {
	return c.amap.TouchLine(line, c.node).Node
}

// sendOp is a pooled deferred bus send: the message rides in the op and
// fireFn (bound once) injects it into the fabric when the bus transfer
// completes. Pooling keeps sendToDir — on the path of every coherence
// message a node emits — from allocating a closure per send.
type sendOp struct {
	c      *CacheCtrl
	msg    network.Message
	fireFn func()
}

func (op *sendOp) fire() {
	c := op.c
	msg := op.msg
	op.msg = network.Message{} // release the Deliver closure
	c.sendFree = append(c.sendFree, op)
	c.net.Send(msg)
}

func (c *CacheCtrl) getSendOp() *sendOp {
	if n := len(c.sendFree); n > 0 {
		op := c.sendFree[n-1]
		c.sendFree[n-1] = nil
		c.sendFree = c.sendFree[:n-1]
		return op
	}
	op := &sendOp{c: c}
	op.fireFn = op.fire
	return op
}

func (c *CacheCtrl) sendToDir(dst arch.NodeID, bytes int, class stats.Class,
	earliest sim.Time, fn func()) {
	start := c.bus.ReserveAt(earliest, c.busCfg.Occupancy(bytes))
	op := c.getSendOp()
	op.msg = network.Message{Src: c.node, Dst: dst, Bytes: bytes, Class: class, Deliver: fn}
	c.ctx.At(start+c.busCfg.Occupancy(bytes), op.fireFn)
}

// --- processor interface ---

// Load performs a read of addr. Loads are blocking: the processor issues
// its next operation only once the data is available. On an L1 or L2 hit
// Load schedules nothing and returns the time the data is available
// (hit=true); the processor folds that completion into its next event. On
// a miss done runs when the fill arrives (hit=false, at unset).
func (c *CacheCtrl) Load(addr arch.Addr, done func()) (at sim.Time, hit bool) {
	c.st.MemRefs++
	c.st.Loads++
	line := addr.Line()
	t1 := c.l1.Access()
	if c.l1.Lookup(line) != nil {
		c.st.L1Hits++
		return t1, true
	}
	c.st.L1Misses++
	t2 := c.l2.AccessAt(t1)
	if l2l := c.l2.Lookup(line); l2l != nil {
		c.st.L2Hits++
		c.fillL1(line, l2l)
		return t2, true
	}
	c.st.L2Misses++
	c.request(line, reqGETS, t2, done, nil)
	return 0, false
}

// Store buffers a write of val to addr. done runs when the store occupies a
// buffer slot (immediately unless the buffer is full); the write itself
// retires in the background.
func (c *CacheCtrl) Store(addr arch.Addr, val uint64, done func()) {
	c.st.MemRefs++
	c.st.Stores++
	if c.sbLen() >= c.sbCap {
		if c.sbStalled {
			panic("coherence: second store while stalled")
		}
		c.sbStalled = true
		c.stalledAddr, c.stalledVal, c.stalledDone = addr, val, done
		c.st.MemRefs-- // the retry recounts
		c.st.Stores--
		return
	}
	c.sb = append(c.sb, sbEntry{addr: addr, val: val})
	// A buffered store is in-flight work: the drain chain advances through
	// plain scheduled events with no MSHR of its own, so without this the
	// tracker can read zero — and a checkpoint begin its flush — while
	// retirements are still pending (stale data reaches memory).
	c.tracker.Inc()
	c.drain()
	done()
}

// retryStalled re-submits the store that stalled on a full buffer.
func (c *CacheCtrl) retryStalled() {
	done := c.stalledDone
	c.stalledDone = nil
	c.Store(c.stalledAddr, c.stalledVal, done)
}

// drain retires buffered stores in order. A new chain starts inline once
// the previous one's L1 port slot has passed, and otherwise at that slot —
// exactly when the old chain's trailing drainHead would have found the
// store.
func (c *CacheCtrl) drain() {
	if c.draining || c.sbLen() == 0 {
		return
	}
	c.draining = true
	if c.ctx.Now() >= c.drainAt {
		c.drainHead()
		return
	}
	c.ctx.At(c.drainAt, c.drainHeadFn)
}

func (c *CacheCtrl) drainHead() {
	if c.sbLen() == 0 {
		c.draining = false
		return
	}
	e := c.sb[c.sbHead]
	line := e.addr.Line()
	t1 := c.l1.Access()
	r := c.l1.Lookup(line)
	if r == nil {
		c.st.L1Misses++
		t2 := c.l2.AccessAt(t1)
		l2l := c.l2.Lookup(line)
		if l2l == nil {
			c.st.L2Misses++
			c.request(line, reqGETX, t2, nil, c.drainHeadFn)
			return
		}
		c.st.L2Hits++
		r = c.fillL1(line, l2l)
		t1 = t2
	} else {
		c.st.L1Hits++
	}
	if !r.Line.State.CanWrite() {
		// Shared at the node (L2) level: upgrade needed.
		c.request(line, reqUPG, t1, nil, c.drainHeadFn)
		return
	}
	// Writable: retire the store.
	c.applyStore(r, e)
	c.sbPop()
	c.tracker.Dec()
	if c.sbStalled {
		c.sbStalled = false
		c.retryStalled()
	}
	if c.sbLen() == 0 {
		c.draining, c.drainAt = false, t1
		return
	}
	c.ctx.At(t1, c.drainHeadFn)
}

// applyStore writes the 8-byte store value into the linked L2 bytes and
// marks the L1 way Modified. Store values are real bytes: they flow through
// write-backs, logs and parity, so recovery can be verified end to end.
func (c *CacheCtrl) applyStore(r *cache.Ref, e sbEntry) {
	off := int(e.addr) & (arch.LineBytes - 1) &^ 7
	binary.LittleEndian.PutUint64(r.Line.Data[off:], e.val)
	r.State = cache.Modified
}

// request sends a coherence request for line to its home, creating or
// joining the line's MSHR. loadDone (if non-nil) completes from the
// arriving fill; retry (if non-nil) re-examines the cache at reply time.
func (c *CacheCtrl) request(line arch.LineAddr, kind reqKind, earliest sim.Time,
	loadDone, retry func()) {
	m := c.pending[line]
	if m == nil {
		m = c.getMSHR()
		c.pending[line] = m
	} else {
		m.add(loadDone, retry)
		return
	}
	m.add(loadDone, retry)
	c.tracker.Inc()
	c.st.Trace.AsyncBegin(trace.MissService, int(c.node), uint64(line))
	homeNode := c.home(line)
	dir := c.dirs[homeNode]
	self := c.node
	c.sendToDir(homeNode, network.ControlBytes, stats.ClassRead, earliest, func() {
		switch kind {
		case reqGETS:
			dir.GETS(self, line)
		case reqGETX:
			dir.GETX(self, line)
		case reqUPG:
			dir.UPG(self, line)
		default:
			panic("coherence: bad request kind")
		}
	})
}

func (m *mshr) add(loadDone, retry func()) {
	if loadDone != nil {
		m.loadDone = append(m.loadDone, loadDone)
	}
	if retry != nil {
		m.retries = append(m.retries, retry)
	}
}

// getMSHR takes an MSHR from the free list (or allocates the first time);
// putMSHR recycles one at retirement, clearing the waiter slots so their
// closures are released but keeping the slices' capacity.
func (c *CacheCtrl) getMSHR() *mshr {
	if n := len(c.mshrFree); n > 0 {
		m := c.mshrFree[n-1]
		c.mshrFree[n-1] = nil
		c.mshrFree = c.mshrFree[:n-1]
		return m
	}
	return &mshr{}
}

func (c *CacheCtrl) putMSHR(m *mshr) {
	for i := range m.loadDone {
		m.loadDone[i] = nil
	}
	for i := range m.retries {
		m.retries[i] = nil
	}
	m.loadDone = m.loadDone[:0]
	m.retries = m.retries[:0]
	c.mshrFree = append(c.mshrFree, m)
}

// completeRequest retires the line's MSHR: loads complete, drain
// continuations replay, all at time `at` (the reply's bus transfer end).
func (c *CacheCtrl) completeRequest(line arch.LineAddr, at sim.Time) {
	m := c.pending[line]
	if m == nil {
		panic("coherence: reply without MSHR")
	}
	delete(c.pending, line)
	c.st.Trace.AsyncEnd(trace.MissService, int(c.node), uint64(line))
	c.tracker.Dec()
	for _, w := range m.loadDone {
		c.ctx.At(at, w)
	}
	for _, r := range m.retries {
		c.ctx.At(at, r)
	}
	c.putMSHR(m)
}

// retireHeadStoreIfReady retires the store-buffer head immediately if the
// just-arrived reply granted write permission for its line. Doing this at
// reply arrival (rather than on a delayed replay) closes the window in
// which a racing invalidation could steal the line and livelock the store.
func (c *CacheCtrl) retireHeadStoreIfReady(line arch.LineAddr) {
	if c.sbLen() == 0 || c.sb[c.sbHead].addr.Line() != line {
		return
	}
	l2l := c.l2.Probe(line)
	if l2l == nil || !l2l.State.CanWrite() {
		return
	}
	r := c.l1.Probe(line)
	if r == nil {
		r = c.fillL1(line, l2l)
	}
	c.applyStore(r, c.sb[c.sbHead])
	c.sbPop()
	c.tracker.Dec()
	if c.sbStalled {
		c.sbStalled = false
		c.retryStalled()
	}
}

// fillL1 links line's L2 way into L1 (same state). A dirty L1 victim's
// bytes are already in its L2 way: folding it back is a state change.
func (c *CacheCtrl) fillL1(line arch.LineAddr, l2l *cache.Line) *cache.Ref {
	r, victim, evicted := c.l1.Insert(line, l2l)
	if evicted && victim.State == cache.Modified {
		victim.Line.State = cache.Modified
	}
	return r
}

// --- protocol handlers (invoked from network Deliver closures) ---

// fill delivers a data reply. State changes are applied at arrival (so
// later-arriving probes observe them); waiter completion pays the bus
// transfer time.
func (c *CacheCtrl) fill(line arch.LineAddr, kind cacheFill, data arch.Data) {
	c.Fills++
	var st cache.State
	switch kind {
	case cacheFillShared:
		st = cache.Shared
	case cacheFillExclusive:
		st = cache.Exclusive
	case cacheFillModified:
		st = cache.Modified
	}
	c.fillL1(line, c.insertL2(line, st, data))
	c.retireHeadStoreIfReady(line)
	busT := c.bus.Reserve(c.busCfg.Occupancy(network.DataBytes))
	c.completeRequest(line, busT+c.busCfg.Occupancy(network.DataBytes))
}

// insertL2 places a fill into L2 and returns its way, evicting (and writing
// back or announcing) a victim if needed. Pending lines are pinned.
func (c *CacheCtrl) insertL2(line arch.LineAddr, st cache.State, data arch.Data) *cache.Line {
	slot, victim, evicted := c.l2.InsertPinned(line, st, data, func(a arch.LineAddr) bool {
		return c.pending[a] != nil
	})
	if !evicted {
		return slot
	}
	// Back-invalidate the L1 way (inclusion); it may be the dirty level.
	if r, found := c.l1.Invalidate(victim.Addr); found && r.State == cache.Modified {
		victim.State = cache.Modified
	}
	switch victim.State {
	case cache.Modified:
		c.writeBack(victim.Addr, victim.Data, false, false)
	case cache.Exclusive:
		// Clean-exclusive replacement hint, so the home never forwards
		// an intervention to a copy that is gone.
		c.tracker.Inc()
		homeNode := c.home(victim.Addr)
		dir := c.dirs[homeNode]
		self := c.node
		addr := victim.Addr
		c.sendToDir(homeNode, network.ControlBytes, stats.ClassRead, c.ctx.Now(), func() {
			dir.Repl(self, addr)
			dir.tracker.Dec() // hint consumed; no acknowledgment
		})
	case cache.Shared:
		// Silent: the directory tolerates stale sharers.
	}
	return slot
}

// writeBack sends a dirty line to its home. keep=true retains a clean
// exclusive copy (checkpoint flush).
func (c *CacheCtrl) writeBack(line arch.LineAddr, data arch.Data, ckp, keep bool) {
	c.tracker.Inc()
	homeNode := c.home(line)
	dir := c.dirs[homeNode]
	self := c.node
	c.sendToDir(homeNode, network.DataBytes, wbClass(ckp), c.ctx.Now(), func() {
		dir.WB(self, line, data, ckp, keep)
	})
}

// upgAck grants the pending upgrade.
func (c *CacheCtrl) upgAck(line arch.LineAddr) {
	if l2l := c.l2.Probe(line); l2l != nil {
		l2l.State = cache.Exclusive // store retirement will dirty it
	} else {
		panic("coherence: upgrade ack for absent line")
	}
	if r := c.l1.Probe(line); r != nil {
		r.State = cache.Exclusive
	}
	c.retireHeadStoreIfReady(line)
	busT := c.bus.Reserve(c.busCfg.Occupancy(network.ControlBytes))
	c.completeRequest(line, busT+c.busCfg.Occupancy(network.ControlBytes))
}

// wbAck confirms a write-back. For checkpoint write-backs (keep=true at the
// home) the retained copy becomes clean exclusive only now — while the
// write-back is in flight the line stays Modified so that a crossing
// intervention still forwards the dirty data.
func (c *CacheCtrl) wbAck(line arch.LineAddr) {
	if c.flushing[line] {
		delete(c.flushing, line)
		if l2l := c.l2.Probe(line); l2l != nil && l2l.State == cache.Modified {
			l2l.State = cache.Exclusive
		}
		if r := c.l1.Probe(line); r != nil && r.State == cache.Modified {
			r.State = cache.Exclusive
		}
		c.flushInflight--
		c.tracker.Dec()
		c.flushIssue()
		return
	}
	c.tracker.Dec()
}

// probe answers an intervention from the home: inv=false downgrades to
// Shared (read fetch), inv=true invalidates (exclusive fetch). The line is
// dirty if either level holds it Modified; its bytes are the L2's.
func (c *CacheCtrl) probe(line arch.LineAddr, inv bool, homeNode arch.NodeID) {
	l2l := c.l2.Probe(line)
	r := c.l1.Probe(line)
	if l2l == nil && r != nil {
		panic("coherence: L1 line not in L2 (inclusion violated)")
	}
	found := l2l != nil
	var data arch.Data
	dirty := false
	if found {
		data = l2l.Data
		dirty = l2l.State == cache.Modified || r != nil && r.State == cache.Modified
		if inv {
			c.l1.Invalidate(line)
			c.l2.Invalidate(line)
		} else {
			if r != nil {
				r.State = cache.Shared
			}
			l2l.State = cache.Shared
		}
	}
	bytes := network.ControlBytes
	if found {
		bytes = network.DataBytes
	}
	t := c.l2.Access()
	dir := c.dirs[homeNode]
	self := c.node
	c.sendToDir(homeNode, bytes, stats.ClassRead, t, func() {
		dir.fetchResp(self, line, found, dirty, data)
	})
}

// inval drops a shared copy and acknowledges, even when the copy was
// already silently evicted (the directory's sharer list may be stale).
func (c *CacheCtrl) inval(line arch.LineAddr, homeNode arch.NodeID) {
	if l, found := c.l1.Invalidate(line); found && l.State == cache.Modified {
		panic("coherence: invalidation of dirty L1 line")
	}
	if l, found := c.l2.Invalidate(line); found && l.State == cache.Modified {
		panic("coherence: invalidation of dirty L2 line")
	}
	t := c.l2.Access()
	dir := c.dirs[homeNode]
	c.sendToDir(homeNode, network.ControlBytes, stats.ClassRead, t, func() {
		dir.invAck(line)
	})
}

// --- checkpoint support ---

// FlushDirty writes every dirty line back to memory, retaining clean
// exclusive copies (the checkpoint flush of section 3.2.3). done runs when
// every write-back has been acknowledged. Call only with PendingOps() == 0.
func (c *CacheCtrl) FlushDirty(done func()) {
	if c.flushDone != nil {
		panic("coherence: concurrent flushes")
	}
	if c.sbLen() != 0 {
		// A store retiring mid-flush lands between dirty-line enumeration
		// and write-back capture, so its value would reach memory but not
		// the retained L2 copy.
		panic("coherence: flush with buffered stores")
	}
	// Fold dirty L1 lines into L2 first, paying one L1+L2 access each.
	t := c.ctx.Now()
	for n := c.l1.FoldDirty(); n > 0; n-- {
		t = c.l2.AccessAt(c.l1.Access())
	}
	c.flushQueue, c.flushHead = c.l2.AppendDirty(c.flushQueue[:0]), 0
	c.flushDone = done
	c.ctx.At(t, c.flushIssueFn)
}

// flushWindow bounds the write-backs a node keeps in flight during a flush
// (a hardware write buffer's depth; the flush is memory-port bound well
// before this limit).
const flushWindow = 16

func (c *CacheCtrl) flushIssue() {
	if c.flushDone == nil {
		return
	}
	for c.flushInflight < flushWindow && c.flushHead < len(c.flushQueue) {
		line := c.flushQueue[c.flushHead]
		c.flushHead++
		l2l := c.l2.Probe(line)
		if l2l == nil || l2l.State != cache.Modified {
			continue // lost to an intervention since enumeration
		}
		c.flushing[line] = true
		c.flushInflight++
		c.tracker.Inc()
		c.l2.Access() // enumeration/tag access
		c.writeBackFlush(line, l2l.Data)
	}
	if c.flushInflight == 0 && c.flushHead == len(c.flushQueue) {
		done := c.flushDone
		c.flushDone = nil
		done() // the checkpoint manager's flush acknowledgment
	}
}

func (c *CacheCtrl) writeBackFlush(line arch.LineAddr, data arch.Data) {
	homeNode := c.home(line)
	dir := c.dirs[homeNode]
	self := c.node
	c.sendToDir(homeNode, network.DataBytes, stats.ClassCkpWB, c.ctx.Now(), func() {
		dir.WB(self, line, data, true, true)
	})
}

// InvalidateAll drops every cached line on this node. Rollback recovery
// uses it: everything modified since the checkpoint is discarded. It must
// only run with no outstanding operations.
func (c *CacheCtrl) InvalidateAll() {
	if c.PendingOps() != 0 || c.flushDone != nil {
		panic("coherence: InvalidateAll with operations in flight")
	}
	c.l1.InvalidateAll()
	c.l2.InvalidateAll()
}

func (c *CacheCtrl) String() string {
	return fmt.Sprintf("cachectrl(node %d)", c.node)
}

// Reset models the hardware reset of recovery Phase 1: all cached data is
// invalidated and every in-flight request, buffered store and flush is
// abandoned (their completions were dropped with the engine's events).
func (c *CacheCtrl) Reset() {
	c.l1.InvalidateAll()
	c.l2.InvalidateAll()
	c.pending = make(map[arch.LineAddr]*mshr)
	c.sb, c.sbHead = nil, 0
	c.sbStalled = false
	c.stalledDone = nil
	c.draining, c.drainAt = false, 0
	c.flushQueue, c.flushHead = c.flushQueue[:0], 0
	c.flushInflight = 0
	c.flushDone = nil
	c.flushing = make(map[arch.LineAddr]bool)
}

// BusBusy reports the node bus's cumulative busy time (utilization
// reporting).
func (c *CacheCtrl) BusBusy() sim.Time { return c.bus.BusyTime() }
