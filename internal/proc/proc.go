// Package proc models the processors: 6-issue cores (Table 3) driven by
// workload streams. The model is memory-level: compute instructions between
// memory references advance time at the issue width; loads block (the
// paper's overheads are memory-system effects, uniform across baseline and
// ReVive); stores retire through the cache controller's 16-entry store
// buffer. Processors park at instruction boundaries for checkpoints and
// save/restore their stream position — the "execution context" that
// rollback re-executes from.
package proc

import (
	"revive/internal/coherence"
	"revive/internal/sim"
	"revive/internal/stats"
	"revive/internal/trace"
	"revive/internal/workload"
)

// Config carries the core parameters (Table 3: 6-issue dynamic, 1 GHz).
type Config struct {
	IssueWidth int
}

// DefaultConfig returns the Table 3 processor.
func DefaultConfig() Config { return Config{IssueWidth: 6} }

// Proc is one processor.
type Proc struct {
	ctx    *sim.Ctx
	cfg    Config
	id     int
	cc     *coherence.CacheCtrl
	stream workload.Stream
	st     *stats.Stats

	seq      uint64 // store sequence number (distinct store values)
	finished bool
	parked   bool
	execOpen bool   // an open ProcExec trace span (Begin without End)
	intReq   func() // pending checkpoint interrupt callback

	// OnFinish runs once when the stream is exhausted.
	OnFinish func()

	// ckptSnap is the stream snapshot taken at the last committed
	// checkpoint (the saved execution context).
	ckptSnap any

	// stepFn, storeDone, issueFn and stallDone are the bound
	// continuations, allocated once: the processor schedules millions of
	// them. pendingOp carries the operation issueFn runs — at most one
	// operation is ever between its draw and its issue (execution is
	// strictly sequential per processor), so a single slot replaces a
	// per-event closure capture. stallAddr is the traced miss stallDone
	// closes.
	stepFn    func()
	storeDone func()
	issueFn   func()
	stallDone func()
	pendingOp workload.Op
	stallAddr uint64
}

// New builds a processor bound to its node's cache controller. ctx
// schedules everything the processor does.
func New(ctx *sim.Ctx, cfg Config, id int, cc *coherence.CacheCtrl,
	stream workload.Stream, st *stats.Stats) *Proc {
	p := &Proc{ctx: ctx, cfg: cfg, id: id, cc: cc, stream: stream, st: st}
	p.stepFn = p.step
	p.storeDone = func() { p.continueAt(p.ctx.Now() + 1) }
	p.issueFn = func() { p.issue(p.pendingOp) }
	p.stallDone = func() {
		p.st.Trace.AsyncEnd(trace.ProcStall, p.id, p.stallAddr)
		p.step()
	}
	return p
}

// ID returns the processor number.
func (p *Proc) ID() int { return p.id }

// Finished reports whether the stream is exhausted.
func (p *Proc) Finished() bool { return p.finished }

// Start begins execution.
func (p *Proc) Start() {
	p.ckptSnap = p.stream.Snapshot()
	p.st.Trace.Begin(trace.ProcExec, p.id, 0)
	p.execOpen = true
	p.step()
}

// endExec closes the processor's execution span (stream exhaustion or
// rollback), at most once per Start.
func (p *Proc) endExec() {
	if p.execOpen {
		p.st.Trace.End(trace.ProcExec, p.id, 0)
		p.execOpen = false
	}
}

// step issues the next trace operation.
func (p *Proc) step() {
	if p.intReq != nil {
		p.parked = true
		p.st.Trace.Instant(trace.ProcParked, p.id, 0)
		cb := p.intReq
		p.intReq = nil
		cb() // the checkpoint manager's park acknowledgment
		return
	}
	op, ok := p.stream.Next()
	if !ok {
		p.finished = true
		p.endExec()
		if p.OnFinish != nil {
			p.OnFinish()
		}
		return
	}
	// A zero-cycle compute gap issues without a scheduler round-trip (the
	// common case at 6-wide issue).
	if compute := p.draw(op); compute > 0 {
		p.pendingOp = op
		p.ctx.After(compute, p.issueFn)
		return
	}
	p.issue(op)
}

// draw counts a drawn operation's instructions and returns its compute
// time: gap instructions at the issue width, minimum one cycle per memory
// operation slot.
func (p *Proc) draw(op workload.Op) sim.Time {
	p.st.Instructions += uint64(op.Gap) + 1
	return sim.Time((op.Gap + p.cfg.IssueWidth - 1) / p.cfg.IssueWidth)
}

// continueAt is step folded into the completion of the previous operation
// at t (a cache hit, a store's acceptance): the next operation is drawn
// now and its issue scheduled at t plus its compute time, one event
// instead of two. A pending interrupt or an exhausted stream falls back to
// step at t, so parking and OnFinish keep their times. An interrupt that
// arrives between the draw and the issue is taken at the next boundary, so
// a drawn operation is always issued before the processor parks.
func (p *Proc) continueAt(t sim.Time) {
	if p.intReq == nil {
		if op, ok := p.stream.Next(); ok {
			p.pendingOp = op
			p.ctx.At(t+p.draw(op), p.issueFn)
			return
		}
	}
	p.ctx.At(t, p.stepFn)
}

func (p *Proc) issue(op workload.Op) {
	switch op.Kind {
	case workload.OpLoad:
		// A miss completes through stepFn (stallDone when traced, which
		// closes the stall span); a hit continues inline.
		tr := p.st.Trace
		done := p.stepFn
		if tr.Enabled() {
			done = p.stallDone
		}
		start := p.ctx.Now()
		at, hit := p.cc.Load(op.Addr, done)
		if !hit {
			if tr.Enabled() {
				p.stallAddr = uint64(op.Addr)
				tr.AsyncBegin(trace.ProcStall, p.id, p.stallAddr)
			}
			return
		}
		tr.SpanAt(trace.ProcStall, p.id, start, at-start, uint64(op.Addr))
		p.continueAt(at)
	case workload.OpStore:
		p.seq++
		val := uint64(p.id+1)<<48 | p.seq
		p.cc.Store(op.Addr, val, p.storeDone)
	}
}

// Interrupt implements core.Processor: park at the next boundary. A
// finished or already-parked processor parks immediately.
func (p *Proc) Interrupt(parked func()) {
	if p.finished || p.parked {
		parked()
		return
	}
	if p.intReq != nil {
		panic("proc: overlapping interrupts")
	}
	p.intReq = parked
}

// Resume implements core.Processor: restart after a checkpoint. The commit
// also snapshots the stream position as the new saved context.
func (p *Proc) Resume() {
	p.ckptSnap = p.stream.Snapshot()
	if !p.parked {
		return
	}
	p.parked = false
	p.ctx.After(0, p.stepFn)
}

// ContextSnapshot returns the stream snapshot saved at the last checkpoint
// (rollback restores execution from here).
func (p *Proc) ContextSnapshot() any { return p.ckptSnap }

// RestoreContext rewinds the stream to a snapshot (rollback) and clears
// any frozen interrupt/park state from before the error.
func (p *Proc) RestoreContext(snap any) {
	p.endExec() // the pre-error execution span dies with the rollback
	p.stream.Restore(snap)
	p.finished = false
	p.parked = false
	p.intReq = nil
}
