// Package coherence implements the machine's cache-coherence protocol: a
// full-map directory protocol in the style of DASH (the paper's baseline),
// with one directory controller and one cache controller per node. All
// requests for a line serialize at the line's home directory controller;
// eviction races (a write-back or replacement hint crossing an intervention
// in flight) are resolved by the home consuming the eviction message as the
// intervention's answer.
//
// ReVive attaches to the home controller through the Extension interface:
// every point where the paper's Figures 4 and 5 extend the baseline
// protocol — write-intent logging, pre-write logging, post-write parity —
// is a hook that the baseline leaves empty.
package coherence

import (
	"revive/internal/arch"
	"revive/internal/sim"
)

// Extension is the set of directory-controller hooks that ReVive
// implements (package core). A nil Extension is the baseline machine with
// no recovery support.
//
// All hooks receive the line's global address and physical location and a
// completion callback; the directory entry stays busy until the callback
// runs, exactly as the paper's transient states keep the entry busy until
// the parity acknowledgment arrives.
type Extension interface {
	// WriteIntent runs when the home has observed a read-exclusive or
	// upgrade request (Figure 5(a)): the line will be modified, so if it
	// has not been logged this checkpoint interval, its memory content
	// is copied to the log and the log's parity updated, all in the
	// background after the reply to the requester. release is called
	// when the entry may leave its transient state.
	WriteIntent(line arch.LineAddr, phys arch.PhysLine, release func())

	// Write owns the complete memory-write sequence at the home node
	// when a write-back (or sharing write-back) overwrites memory:
	// logging if the line is not yet logged — strictly *before* the data
	// write, per the log-data update race of section 4.2 (Figure 5(b))
	// — then the data write, then the data parity update of Figure 4.
	// ack is called when the write-back may be acknowledged to the
	// requester (after the data write; delayed by logging in the
	// Figure 5(b) case); release when the entry may leave its transient
	// state (after the parity acknowledgment). ckp marks checkpoint
	// flush traffic for the Figure 9/10 class split. The hook is
	// responsible for charging the data write to memory statistics.
	Write(line arch.LineAddr, phys arch.PhysLine, data arch.Data, ckp bool, ack, release func())
}

// FlowObserver watches the data-flow-relevant coherence transactions at a
// line's home directory: who read a line, who declared intent to write
// it. The conelog recovery strategy (package core) uses it to maintain
// the per-epoch write-dependence cone that bounds a localized rollback.
// A nil observer costs nothing.
//
// Calls arrive on the engine's one event-loop goroutine, in event order,
// so implementations need no synchronization.
type FlowObserver interface {
	// ObserveRead runs when the home accepts a read (GETS) for line from
	// node req.
	ObserveRead(req arch.NodeID, line arch.LineAddr)
	// ObserveWrite runs when the home accepts a write intent (GETX or a
	// successful upgrade) for line from node req.
	ObserveWrite(req arch.NodeID, line arch.LineAddr)
}

// Tracker counts in-flight work machine-wide: cache-side misses, stores,
// write-backs, home-side transactions and background parity updates. The
// checkpoint algorithm's first barrier requires global quiescence
// ("each processor waits until all its outstanding operations are
// complete"), and end-of-run draining uses it too.
type Tracker struct {
	outstanding int
	onZero      []func()
}

// Inc registers one new in-flight operation.
func (t *Tracker) Inc() { t.outstanding++ }

// Dec retires one operation. Going negative panics: it means an operation
// was double-retired, which is always an accounting bug.
func (t *Tracker) Dec() {
	t.outstanding--
	if t.outstanding < 0 {
		panic("coherence: tracker underflow")
	}
	if t.outstanding == 0 && len(t.onZero) > 0 {
		fns := t.onZero
		t.onZero = nil
		for _, fn := range fns {
			fn()
		}
	}
}

// NotifyQuiescent runs fn once the in-flight count reaches zero
// (immediately if it already is). The checkpoint algorithm uses this for
// its pre-barrier drain; callers must ensure no new work starts while
// waiting (processors are parked).
func (t *Tracker) NotifyQuiescent(fn func()) {
	if t.outstanding == 0 {
		fn()
		return
	}
	t.onZero = append(t.onZero, fn)
}

// Quiescent reports whether no operations are in flight.
func (t *Tracker) Quiescent() bool { return t.outstanding == 0 }

// Outstanding returns the in-flight operation count.
func (t *Tracker) Outstanding() int { return t.outstanding }

// DirConfig carries the directory controller timing (Table 3: 21 ns
// latency, pipelined at 333 MHz, i.e. a new operation every 3 ns).
type DirConfig struct {
	Latency   sim.Time
	Occupancy sim.Time
}

// DefaultDirConfig returns the Table 3 directory controller timing.
func DefaultDirConfig() DirConfig { return DirConfig{Latency: 21, Occupancy: 3} }

// BusConfig models the node bus (Table 3: 100 MHz 64-bit quad-data-rate,
// 3.2 GB/s): each transfer between the processor-side caches and the hub
// occupies the bus for PicosPerByte ps per byte.
type BusConfig struct {
	PicosPerByte int
}

// DefaultBusConfig returns the Table 3 bus timing (3.2 GB/s ≈ 312 ps/B; an
// 80-byte data transfer occupies the bus for 25 ns).
func DefaultBusConfig() BusConfig { return BusConfig{PicosPerByte: 312} }

// Occupancy returns the bus time for a transfer of the given size.
func (b BusConfig) Occupancy(bytes int) sim.Time {
	return sim.Time(bytes*b.PicosPerByte) / 1000
}

// Reset clears all in-flight accounting (fail-stop fault injection).
func (t *Tracker) Reset() {
	t.outstanding = 0
	t.onZero = nil
}
