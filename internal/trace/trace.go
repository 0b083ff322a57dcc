// Package trace is the simulator's flight recorder: a bounded ring buffer
// of typed events emitted by every layer of the machine — processor
// execute/stall, cache miss service, directory-controller log appends and
// parity updates, the checkpoint two-phase commit, recovery phases, and
// transport retransmission/failover/escalation.
//
// The tracer is owned by the simulation's event loop, so emission is a
// plain slot write — no locks, no atomics. All emit methods are safe on a
// nil *Tracer and cost nothing beyond the nil check, so instrumented code
// paths pay zero allocations when tracing is disabled. Emit sites that
// would otherwise allocate (e.g. wrapping a continuation to close a span)
// must guard on Enabled().
//
// Two sinks consume the ring: Chrome trace-event JSON (chrome.go,
// Perfetto-loadable) and per-epoch metric time-series (series.go).
package trace

import (
	"fmt"

	"revive/internal/sim"
)

// Kind is the typed event vocabulary.
type Kind uint8

const (
	// KindNone is the zero value (an unwritten ring slot).
	KindNone Kind = iota

	// ProcExec spans a processor's execution (Begin at Start, End at
	// stream exhaustion or rollback).
	ProcExec
	// ProcStall spans one blocking load, from issue to data. A miss is an
	// async span closed by the fill (loads from different lines overlap
	// in the MSHRs); a hit, whose completion time is known at issue, is a
	// complete span. Arg is the address.
	ProcStall
	// ProcParked marks a processor parking for a checkpoint interrupt.
	ProcParked

	// MissService spans one outstanding miss in a cache controller's
	// MSHRs, from request to reply (async). Arg is the line address.
	MissService

	// LogAppend marks one ReVive log entry append. Arg is the line.
	LogAppend
	// CkptMarker marks a checkpoint-commit marker append. Arg is the epoch.
	CkptMarker
	// ParityUpdate spans one distributed parity update round trip
	// (async). Arg is the line.
	ParityUpdate
	// ParityDebtDropped marks a parity-ledger delta discarded during
	// recovery Phase 1 because its target parity node was lost (Phase 4
	// rebuilds that parity from data). Arg is the target's memory address.
	ParityDebtDropped

	// Checkpoint spans one full global checkpoint; the phases below nest
	// inside it. Arg is the committing epoch.
	Checkpoint
	// CkpInterrupt spans interrupt delivery + quiesce of phase one.
	CkpInterrupt
	// CkpFlush spans the dirty-cache flush.
	CkpFlush
	// CkpBarrier spans one global barrier (Arg: 1 or 2).
	CkpBarrier
	// CkpCommit spans the two-phase commit's marker writes. Arg is the epoch.
	CkpCommit

	// Recovery spans a whole completed recovery (synthetic: recovery
	// phase times are analytic, the clock does not advance during them).
	// Arg is the rollback target epoch.
	Recovery
	// RecoveryPhase1 .. RecoveryPhase4 span the individual phases.
	RecoveryPhase1
	RecoveryPhase2
	RecoveryPhase3
	RecoveryPhase4

	// XportRetransmit marks a transport payload retransmission. Arg is
	// the sequence number.
	XportRetransmit
	// XportEscalation marks a retransmit budget exhausted: the transport
	// gives up and escalates to node-loss detection. Arg is the peer.
	XportEscalation
	// RouteFailover marks a message routed around a dead link or router.
	// Arg is the destination.
	RouteFailover
	// NetDrop marks a message discarded in the fabric by the fault plan.
	// Arg is the destination.
	NetDrop

	// NodeLost marks a node's memory marked lost (fault injection).
	NodeLost
	// Freeze marks a machine-wide fail-stop freeze.
	Freeze
	// CPULost marks a node's processor and caches dying while its memory,
	// directory and log survive (split fault domain injection).
	CPULost
	// MemPartialLost marks a contiguous range of a node's memory frames
	// dying while the processor survives. Arg packs loFrame<<32|frames.
	MemPartialLost

	numKinds
)

var kindNames = [numKinds]string{
	KindNone:          "none",
	ProcExec:          "proc-exec",
	ProcStall:         "proc-stall",
	ProcParked:        "proc-parked",
	MissService:       "miss-service",
	LogAppend:         "log-append",
	CkptMarker:        "ckpt-marker",
	ParityUpdate:      "parity-update",
	ParityDebtDropped: "parity-debt-dropped",
	Checkpoint:        "checkpoint",
	CkpInterrupt:      "ckpt-interrupt",
	CkpFlush:          "ckpt-flush",
	CkpBarrier:        "ckpt-barrier",
	CkpCommit:         "ckpt-commit",
	Recovery:          "recovery",
	RecoveryPhase1:    "recovery-phase1",
	RecoveryPhase2:    "recovery-phase2",
	RecoveryPhase3:    "recovery-phase3",
	RecoveryPhase4:    "recovery-phase4",
	XportRetransmit:   "xport-retransmit",
	XportEscalation:   "xport-escalation",
	RouteFailover:     "route-failover",
	NetDrop:           "net-drop",
	NodeLost:          "node-lost",
	Freeze:            "freeze",
	CPULost:           "cpu-lost",
	MemPartialLost:    "mem-partial-lost",
}

// String returns the kind's kebab-case name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds returns every kind except the zero value.
func Kinds() []Kind {
	out := make([]Kind, 0, numKinds-1)
	for k := Kind(1); k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// ParseKind maps a String() name back to its Kind (flight-recorder dumps
// name kinds in JSON by that label).
func ParseKind(name string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return 0, false
}

// MarshalJSON renders the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses a kind name.
func (k *Kind) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("trace: kind must be a JSON string, got %s", data)
	}
	got, ok := ParseKind(string(data[1 : len(data)-1]))
	if !ok {
		return fmt.Errorf("trace: unknown kind %s", data)
	}
	*k = got
	return nil
}

// Ph is an event's phase, mirroring the Chrome trace-event vocabulary.
type Ph uint8

const (
	// PhInstant is a point event.
	PhInstant Ph = iota
	// PhBegin/PhEnd delimit a synchronous span; they must nest per track.
	PhBegin
	PhEnd
	// PhAsyncBegin/PhAsyncEnd delimit overlapping spans matched by
	// (kind, node, arg) — MSHR miss service, parity round trips.
	PhAsyncBegin
	PhAsyncEnd
	// PhSpan is a complete span with an explicit duration (synthetic
	// events recorded after the fact, e.g. recovery phases).
	PhSpan

	numPhs
)

var phNames = [numPhs]string{"i", "B", "E", "b", "e", "X"}

// String returns the Chrome trace-event phase letter.
func (p Ph) String() string {
	if p < numPhs {
		return phNames[p]
	}
	return fmt.Sprintf("Ph(%d)", int(p))
}

// MarshalJSON renders the phase as its Chrome letter.
func (p Ph) MarshalJSON() ([]byte, error) {
	return []byte(`"` + p.String() + `"`), nil
}

// UnmarshalJSON parses a phase letter.
func (p *Ph) UnmarshalJSON(data []byte) error {
	for i, n := range phNames {
		if string(data) == `"`+n+`"` {
			*p = Ph(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown phase %s", data)
}

// Event is one recorded event: 32 bytes, value-copied into the ring.
// Node is -1 for machine-wide events (checkpoint phases, recovery).
type Event struct {
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur,omitempty"` // PhSpan only
	Arg  uint64 `json:"arg,omitempty"`
	Kind Kind   `json:"kind"`
	Ph   Ph     `json:"ph"`
	Node int16  `json:"node"`
}

// Clock supplies the current simulated time; *sim.Engine satisfies it.
type Clock interface {
	Now() sim.Time
}

// Tracer is the bounded flight-recorder ring. The zero capacity default
// holds the last 8192 events. It is owned by the event loop: emission is
// a plain slot write, and all emit methods no-op on a nil receiver.
type Tracer struct {
	clock Clock
	buf   []Event
	n     uint64 // events ever emitted; ring head is n % len(buf)
}

// DefaultCapacity is the ring size New uses for capacity <= 0.
const DefaultCapacity = 8192

// New returns a tracer holding the last capacity events.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// SetClock binds the simulated clock (machine assembly does this; events
// emitted before binding are stamped at 0). Nil-safe.
func (t *Tracer) SetClock(c Clock) {
	if t != nil {
		t.clock = c
	}
}

// Enabled reports whether events are being recorded. Emit sites that must
// allocate to trace (e.g. wrap a continuation) guard on it; plain emit
// calls need no guard — they are nil-safe and allocation-free.
func (t *Tracer) Enabled() bool { return t != nil }

func (t *Tracer) now() int64 {
	if t.clock == nil {
		return 0
	}
	return int64(t.clock.Now())
}

func (t *Tracer) emit(e Event) {
	t.buf[t.n%uint64(len(t.buf))] = e
	t.n++
}

// Instant records a point event at the current simulated time.
func (t *Tracer) Instant(k Kind, node int, arg uint64) {
	if t == nil {
		return
	}
	t.emit(Event{TS: t.now(), Arg: arg, Kind: k, Ph: PhInstant, Node: int16(node)})
}

// Begin opens a synchronous span on the node's track. Begin/End pairs of
// the same track must nest.
func (t *Tracer) Begin(k Kind, node int, arg uint64) {
	if t == nil {
		return
	}
	t.emit(Event{TS: t.now(), Arg: arg, Kind: k, Ph: PhBegin, Node: int16(node)})
}

// End closes the innermost open span of the node's track.
func (t *Tracer) End(k Kind, node int, arg uint64) {
	if t == nil {
		return
	}
	t.emit(Event{TS: t.now(), Arg: arg, Kind: k, Ph: PhEnd, Node: int16(node)})
}

// AsyncBegin opens an overlapping span matched by (kind, node, arg).
func (t *Tracer) AsyncBegin(k Kind, node int, arg uint64) {
	if t == nil {
		return
	}
	t.emit(Event{TS: t.now(), Arg: arg, Kind: k, Ph: PhAsyncBegin, Node: int16(node)})
}

// AsyncEnd closes the matching overlapping span.
func (t *Tracer) AsyncEnd(k Kind, node int, arg uint64) {
	if t == nil {
		return
	}
	t.emit(Event{TS: t.now(), Arg: arg, Kind: k, Ph: PhAsyncEnd, Node: int16(node)})
}

// SpanAt records a complete span with an explicit start and duration —
// synthetic events whose timing was computed rather than observed
// (recovery phases: the clock does not advance while they run).
func (t *Tracer) SpanAt(k Kind, node int, start, dur sim.Time, arg uint64) {
	if t == nil {
		return
	}
	t.emit(Event{TS: int64(start), Dur: int64(dur), Arg: arg, Kind: k, Ph: PhSpan, Node: int16(node)})
}

// Events returns the retained events in emission order (a copy).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	size := uint64(len(t.buf))
	if t.n <= size {
		return append([]Event(nil), t.buf[:t.n]...)
	}
	head := t.n % size
	out := make([]Event, 0, size)
	out = append(out, t.buf[head:]...)
	return append(out, t.buf[:head]...)
}

// Total returns the number of events ever emitted.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many events aged out of the ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	if size := uint64(len(t.buf)); t.n > size {
		return t.n - size
	}
	return 0
}
