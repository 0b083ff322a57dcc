package sim

import "math/bits"

// This file implements deterministic intra-run parallelism: the engine can
// be partitioned into shards (groups of model components, in practice node
// groups) and will then execute independent events of one simulated
// nanosecond concurrently — while producing byte-identical results to the
// serial engine at any shard count.
//
// # Execution model: tick-parallel rounds
//
// The wheel and overflow heap are unchanged and remain the single source
// of event order. When sharding is enabled, Run, RunUntil and StepTick
// drain each non-empty bucket (one simulated nanosecond) in *rounds*: a
// round is the span of bucket positions [head, len) present when the
// round starts.
//
//   - If every event in the span is owned by a shard (owner >= 0), at
//     least two distinct shards appear, and the span is big enough to pay
//     for the barrier, the round runs *parallel*: positions are
//     partitioned by owner and each shard's positions execute on a
//     dedicated worker goroutine, in ascending position order.
//   - Otherwise the round runs *serial*: positions execute inline in
//     ascending order, exactly like the serial engine's Step loop. A
//     global event (owner -1) always executes in a serial round.
//
// Rounds repeat until the bucket is drained (events born into the current
// tick by a round form the next round), then the engine moves to the next
// bucket as usual.
//
// # Why the result is byte-identical to the serial engine
//
// During a parallel round, worker-side code may not touch the wheel or any
// cross-shard state directly. Instead, every side effect is captured as an
// *emission* on the executing shard's log, tagged with the bucket position
// of the event that emitted it:
//
//   - Ctx.At / Ctx.After append an insert-emission (the future event and
//     its owner);
//   - Ctx.Defer appends an effect-emission (a closure touching shared
//     state: a network send, a quiescence-tracker update, a cross-node
//     ledger payment).
//
// When the round's barrier completes, the leader replays all emissions in
// canonical order: ascending creator position, and per creator in program
// order. Each shard executed its positions in ascending order, so each
// worker log is already position-sorted, and positions are disjoint across
// shards — the merge is a linear walk over the span. Replaying inserts in
// that order reproduces the exact wheel-append and overflow-sequence order
// the serial engine would have produced; replaying effects in that order
// reproduces the exact interleaving of shared-state mutations. Shard-local
// state (a node's caches, DRAM, processor) is touched only by that shard's
// events, which keep their serial relative order.
//
// The parallel/serial round choice is therefore a pure performance knob:
// either path yields the same state, the same event order, and the same
// final output.
//
// # Ownership discipline (what component code must guarantee)
//
//   - Every event scheduled through a Ctx is owned by that Ctx's shard and
//     must only read/write state of components in the same shard, plus
//     engine time (constant during a round).
//   - Any touch of cross-shard or global state from a shard-owned event
//     must go through Ctx.Defer.
//   - Events scheduled on the global context (owner -1) may touch
//     anything; the engine never runs them inside a parallel round.
//
// Raw Engine.At calls from inside a parallel round panic — they indicate a
// component bypassing its Ctx.

// GlobalOwner is the owner of events that may touch any state; the engine
// serializes around them.
const GlobalOwner = -1

// MaxShards bounds the shard count; the round scan tracks distinct owners
// in a single 64-bit set. Far above any useful core count.
const MaxShards = 64

// defaultParallelThreshold is the minimum round span worth a barrier.
// Purely a performance knob: correctness and determinism hold at any
// value (see the package comment above).
const defaultParallelThreshold = 16

// Ctx is a shard-tagged scheduling facade over the engine. Components hold
// a Ctx instead of the Engine; the owner tag is what lets the engine run
// events of different shards concurrently while capturing their emissions
// in a deterministic replay order. With sharding disabled every method
// degenerates to the plain serial engine operation.
type Ctx struct {
	e     *Engine
	owner int32
}

// Context returns a scheduling context owned by the given shard
// (GlobalOwner for events that may touch any state). The owner must be
// < the configured shard count whenever sharding is enabled.
func (e *Engine) Context(owner int) *Ctx {
	return &Ctx{e: e, owner: int32(owner)}
}

// Engine returns the underlying engine (for resource construction and
// serial-context operations).
func (c *Ctx) Engine() *Engine { return c.e }

// Now returns the current simulated time. Constant for the duration of a
// parallel round, so it is always safe to read.
func (c *Ctx) Now() Time { return c.e.now }

// Owner returns the shard this context schedules for.
func (c *Ctx) Owner() int { return int(c.owner) }

// At schedules fn at absolute time t as an event owned by this context's
// shard. Inside a parallel round the insert is logged and replayed by the
// leader in canonical order; otherwise it goes straight to the wheel.
func (c *Ctx) At(t Time, fn func()) {
	e := c.e
	if !e.inRound {
		e.insert(t, fn, c.owner)
		return
	}
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	if c.owner < 0 {
		panic("sim: global context scheduling during a parallel round")
	}
	ws := e.wshards[c.owner]
	ws.log = append(ws.log, emission{pos: ws.pos, at: t, owner: c.owner, insert: true, fn: fn})
}

// After schedules fn d nanoseconds from now on this context's shard.
func (c *Ctx) After(d Time, fn func()) { c.At(c.e.now+d, fn) }

// Defer runs fn as a shared-state effect. Inside a parallel round the
// effect is logged and replayed by the leader in canonical order (with
// the round's barrier already passed, so it may touch anything); otherwise
// it runs inline immediately — which is exactly when inline execution is
// equivalent.
func (c *Ctx) Defer(fn func()) {
	e := c.e
	if !e.inRound {
		fn()
		return
	}
	if c.owner < 0 {
		panic("sim: global context effect during a parallel round")
	}
	ws := e.wshards[c.owner]
	ws.log = append(ws.log, emission{pos: ws.pos, fn: fn})
}

// Parallel reports whether a parallel round is executing right now —
// i.e. whether Defer would log rather than run inline. Component code
// normally doesn't need it; it exists for assertions and tests.
func (c *Ctx) Parallel() bool { return c.e.inRound }

// Sharded reports whether the engine runs with more than one shard at
// all. Components whose state can be reached from concurrent workers use
// it to skip their locks entirely on the serial path, where every access
// is from the one event-loop goroutine.
func (c *Ctx) Sharded() bool { return c.e.shards > 1 }

// emission is one side effect captured during a parallel round: either a
// future-event insert or a deferred shared-state effect. pos is the bucket
// position of the event that emitted it — the sort key that reconstructs
// the serial emission order.
type emission struct {
	pos    int
	at     Time
	owner  int32
	insert bool
	fn     func()
}

// workerShard is the per-shard execution state: the wake channel of its
// worker goroutine, the bucket positions assigned this round, the emission
// log, the position currently executing, and the value of a panic raised
// by one of its events this round (the leader re-raises it). The trailing
// pad keeps one shard's hot fields off its neighbours' cache lines.
type workerShard struct {
	wake     chan struct{}
	idxs     []int
	log      []emission
	applyIdx int
	pos      int
	panicVal any
	_        [64]byte
}

// EnableSharding partitions the engine into n shards. It must be called
// while no events are pending (in practice: right after NewEngine, before
// the model is built). n == 1 leaves the engine in plain serial mode.
func (e *Engine) EnableSharding(n int) {
	if n < 1 {
		panic("sim: shard count must be >= 1")
	}
	if n > MaxShards {
		panic("sim: shard count exceeds 64")
	}
	if e.Pending() != 0 {
		panic("sim: EnableSharding with events pending")
	}
	e.Shutdown()
	e.shards = n
	e.wshards = nil
	if n > 1 {
		e.wshards = make([]*workerShard, n)
		for i := range e.wshards {
			e.wshards[i] = &workerShard{}
		}
		if e.parThreshold == 0 {
			e.parThreshold = defaultParallelThreshold
		}
	}
}

// DisableSharding drops back to serial execution. Unlike EnableSharding it
// is legal with events pending — attaching a fault plan mid-setup does
// exactly this — because the serial path simply ignores recorded owners.
func (e *Engine) DisableSharding() {
	e.Shutdown()
	e.shards = 1
	e.wshards = nil
}

// Shards returns the configured shard count (1 = serial).
func (e *Engine) Shards() int {
	if e.shards < 1 {
		return 1
	}
	return e.shards
}

// SetParallelThreshold sets the minimum round span that runs parallel.
// Purely a performance knob — output is byte-identical at any value.
// Tests use low values to force parallel rounds on small models.
func (e *Engine) SetParallelThreshold(n int) {
	if n < 2 {
		n = 2
	}
	e.parThreshold = n
}

// ParallelRounds returns how many rounds have executed on the parallel
// path since the engine was created (coverage reporting: byte-identity
// tests assert it is non-zero where sharding should engage).
func (e *Engine) ParallelRounds() uint64 { return e.parRounds }

// Shutdown stops the shard worker goroutines. Idempotent; workers are
// respawned lazily if another parallel round runs. Long-lived processes
// that create many machines should call it when a run completes.
func (e *Engine) Shutdown() {
	if !e.workersUp {
		return
	}
	for _, ws := range e.wshards {
		close(ws.wake)
		ws.wake = nil
	}
	e.workersUp = false
}

func (e *Engine) ensureWorkers() {
	if e.workersUp {
		return
	}
	if e.roundDone == nil {
		e.roundDone = make(chan struct{}, 1)
	}
	for _, ws := range e.wshards {
		ws.wake = make(chan struct{}, 1)
		go e.workerLoop(ws, ws.wake)
	}
	e.workersUp = true
}

// workerLoop takes the wake channel by value so it never re-reads the
// ws.wake field, which Shutdown nils out concurrently.
func (e *Engine) workerLoop(ws *workerShard, wake chan struct{}) {
	for range wake {
		e.runPartitionRecover(ws)
		if e.pendingWorkers.Add(-1) == 0 {
			e.roundDone <- struct{}{}
		}
	}
}

// runPartitionRecover is runPartition with a panic captured on the shard
// instead of unwinding its goroutine: a worker has no caller to recover
// it, so an uncaught model panic there would kill the process. The round
// still completes its barrier, and parallelRound re-raises the panic on
// the leader, where the engine's caller can recover it.
func (e *Engine) runPartitionRecover(ws *workerShard) {
	defer func() {
		if r := recover(); r != nil {
			ws.panicVal = r
		}
	}()
	e.runPartition(ws)
}

// runPartition executes this shard's positions of the current round, in
// ascending bucket order. Emissions land on ws.log keyed by ws.pos.
func (e *Engine) runPartition(ws *workerShard) {
	b := e.roundBucket
	for _, pos := range ws.idxs {
		ws.pos = pos
		fn := b.fns[pos]
		b.fns[pos] = nil
		fn()
	}
}

// raiseRoundPanic re-raises, on the leader, the panic of the lowest bucket
// position that panicked this round — the one the serial engine would have
// raised — after clearing the round's shard state so the engine can be
// shut down. A shard stops at its first panicking event, so its pos is
// that event's position.
func (e *Engine) raiseRoundPanic(active []int) {
	var first *workerShard
	for _, o := range active {
		if ws := e.wshards[o]; ws.panicVal != nil && (first == nil || ws.pos < first.pos) {
			first = ws
		}
	}
	if first == nil {
		return
	}
	v := first.panicVal
	for _, o := range active {
		ws := e.wshards[o]
		ws.idxs, ws.log, ws.applyIdx = ws.idxs[:0], ws.log[:0], 0
		ws.panicVal = nil
	}
	e.activeScratch = active[:0]
	panic(v)
}

// StepTick is Step at tick granularity on a sharded engine: it runs every
// event of the next pending tick, in rounds on the tick-parallel path. On
// a serial engine it is Step. Either way it reports false when no events
// remain. Drivers that check a condition between calls (a watchdog
// budget) loop on it to keep the parallel path.
func (e *Engine) StepTick() bool {
	if e.shards <= 1 {
		return e.Step()
	}
	if e.count == 0 {
		if len(e.overflow) == 0 {
			return false
		}
		e.slide()
	}
	idx := e.firstIdx()
	e.now = e.wheelStart + Time(idx)
	e.runTick(idx)
	return true
}

// runShardedUntil is the sharded counterpart of RunUntil: it drains the
// ticks up to t through runTick, advances the clock to exactly t and
// re-anchors an empty wheel.
func (e *Engine) runShardedUntil(t Time) {
	for {
		if e.count == 0 {
			if len(e.overflow) == 0 || e.overflow[0].at > t {
				break
			}
			e.slide()
		}
		idx := e.firstIdx()
		at := e.wheelStart + Time(idx)
		if at > t {
			break
		}
		e.now = at
		e.runTick(idx)
	}
	if t > e.now {
		e.now = t
	}
	if e.count == 0 && e.now > e.wheelStart {
		e.wheelStart = e.now
		e.refill()
	}
}

// runTick drains bucket idx in rounds (see the file comment). On return
// the bucket is empty and its occupancy bit cleared.
func (e *Engine) runTick(idx int) {
	b := &e.buckets[idx]
	for b.head < len(b.fns) {
		start, end := b.head, len(b.fns)
		// Scan the span: find the first global event (which forces a
		// serial round up to and including it) and the set of shards in
		// the prefix before it.
		firstGlobal := -1
		var seen uint64
		for i := start; i < end; i++ {
			o := b.owners[i]
			if o < 0 {
				firstGlobal = i
				break
			}
			seen |= 1 << uint(o)
		}
		boundary := end
		if firstGlobal >= 0 {
			boundary = firstGlobal
		}
		if boundary-start >= e.parThreshold && bits.OnesCount64(seen) >= 2 {
			e.parallelRound(b, start, boundary)
		} else if firstGlobal >= 0 {
			e.serialSpan(b, start, firstGlobal+1)
		} else {
			e.serialSpan(b, start, end)
		}
	}
	b.fns = b.fns[:0]
	b.owners = b.owners[:0]
	b.head = 0
	e.words[idx>>6] &^= 1 << (uint64(idx) & 63)
	if e.words[idx>>6] == 0 {
		e.summary &^= 1 << (uint64(idx) >> 6)
	}
}

// serialSpan executes positions [from, to) inline in ascending order —
// the exact behaviour of the serial engine's Step loop within one tick.
func (e *Engine) serialSpan(b *bucket, from, to int) {
	for pos := from; pos < to; pos++ {
		fn := b.fns[pos]
		b.fns[pos] = nil
		b.head = pos + 1
		e.count--
		e.steps++
		fn()
	}
}

// parallelRound executes positions [start, end) concurrently, partitioned
// by owner, then replays the captured emissions in canonical order.
func (e *Engine) parallelRound(b *bucket, start, end int) {
	e.parRounds++
	active := e.activeScratch[:0]
	for pos := start; pos < end; pos++ {
		ws := e.wshards[b.owners[pos]]
		if len(ws.idxs) == 0 {
			active = append(active, int(b.owners[pos]))
		}
		ws.idxs = append(ws.idxs, pos)
	}
	e.ensureWorkers()
	e.roundBucket = b
	e.inRound = true
	e.pendingWorkers.Store(int32(len(active) - 1))
	for _, o := range active[1:] {
		e.wshards[o].wake <- struct{}{}
	}
	e.runPartitionRecover(e.wshards[active[0]]) // the leader works too
	<-e.roundDone
	e.inRound = false
	e.raiseRoundPanic(active)

	// Replay emissions: ascending creator position; per creator, program
	// order. Positions are disjoint across shards and each log is already
	// position-sorted, so this is a linear walk over the span.
	for pos := start; pos < end; pos++ {
		ws := e.wshards[b.owners[pos]]
		for ws.applyIdx < len(ws.log) && ws.log[ws.applyIdx].pos == pos {
			em := &ws.log[ws.applyIdx]
			ws.applyIdx++
			if em.insert {
				e.insert(em.at, em.fn, em.owner)
			} else {
				em.fn()
			}
			em.fn = nil // release the closure for the garbage collector
		}
	}
	for _, o := range active {
		ws := e.wshards[o]
		ws.idxs = ws.idxs[:0]
		ws.log = ws.log[:0]
		ws.applyIdx = 0
	}
	e.activeScratch = active[:0]
	b.head = end
	e.count -= end - start
	e.steps += uint64(end - start)
}
