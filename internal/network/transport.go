package network

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"revive/internal/arch"
	"revive/internal/sim"
	"revive/internal/stats"
	"revive/internal/trace"
)

// The reliable end-to-end transport between the controllers and the raw
// torus. The paper assumes the interconnect either delivers a message or
// fails detectably (section 3.1.2); this layer *implements* that assumption
// over the lossy fabric of faultplan.go:
//
//   - a CRC over the frame header turns silent corruption into loss;
//   - positive acks with timeout and capped exponential backoff mask loss
//     by retransmission;
//   - per-(src,dst) sequence numbers suppress duplicates and re-establish
//     send order at the receiver (a reorder buffer holds early arrivals),
//     so the section 4.2 ordering discipline survives retransmission;
//   - a bounded retransmit budget turns an unreachable peer into an
//     explicit detection report (OnUnreachable), which the machine
//     escalates to the existing node-loss rollback.
//
// With no fault plan attached every Send passes straight through to the
// raw network: no framing, no acks, no timers, no extra bytes — the
// perfect-fabric timing and message counts are bit-identical.

// XportHeaderBytes is the wire overhead a reliable payload frame adds to a
// message: a sequence number and a CRC trailer.
const XportHeaderBytes = 12

// frameHdrLen is the encoded header the CRC covers.
const frameHdrLen = 16

type frameKind uint8

const (
	framePayload frameKind = 1
	frameAck     frameKind = 2
)

// Frame is the transport framing of one wire message: the encoded header
// and the CRC computed over it at send time. The fault plan corrupts a
// frame by flipping a header bit in flight; the receiver recomputes the
// CRC and discards the frame on a mismatch (CRC32 detects any single-bit
// error with certainty).
type Frame struct {
	hdr [frameHdrLen]byte
	crc uint32
}

func makeFrame(kind frameKind, seq uint64, src, dst arch.NodeID, class stats.Class, bytes int) Frame {
	var f Frame
	binary.LittleEndian.PutUint64(f.hdr[0:8], seq)
	f.hdr[8] = byte(kind)
	f.hdr[9] = byte(src)
	f.hdr[10] = byte(dst)
	f.hdr[11] = byte(int8(class))
	binary.LittleEndian.PutUint32(f.hdr[12:16], uint32(bytes))
	f.crc = frameCRC(&f.hdr)
	return f
}

// crcTable drives frameCRC: the CRC-32 (IEEE) of crc32.ChecksumIEEE,
// computed in place. The library call dispatches through a function
// value, which forces every frame it checks onto the heap.
var crcTable = crc32.MakeTable(crc32.IEEE)

func frameCRC(h *[frameHdrLen]byte) uint32 {
	crc := ^uint32(0)
	for _, b := range h {
		crc = crcTable[byte(crc)^b] ^ crc>>8
	}
	return ^crc
}

// OK recomputes the CRC and reports whether the frame survived the fabric
// intact.
func (f *Frame) OK() bool { return frameCRC(&f.hdr) == f.crc }

// Seq returns the frame's sequence number (valid only when OK).
func (f *Frame) Seq() uint64 { return binary.LittleEndian.Uint64(f.hdr[0:8]) }

// flipBit models in-flight corruption of header bit i.
func (f *Frame) flipBit(i int) { f.hdr[i/8] ^= 1 << (i % 8) }

// TransportConfig tunes the retransmission machinery.
type TransportConfig struct {
	// AckTimeout is the initial retransmit timeout. It doubles per
	// attempt up to BackoffCap.
	AckTimeout sim.Time
	BackoffCap sim.Time
	// MaxRetries bounds retransmissions; exhausting it declares the peer
	// unreachable and fires OnUnreachable.
	MaxRetries int
}

// DefaultTransportConfig returns timeouts sized for the Table 3 fabric: an
// uncontended round trip is ~100 ns, so 1.5 µs leaves ample contention
// headroom, and a peer is declared unreachable after ~95 µs of silence
// (1.5+3+6 µs then seven 12 µs attempts) — roughly two of the chaos
// campaigns' checkpoint intervals. At a 1% drop rate the chance of a
// spurious declaration is ~1e-22 per message.
func DefaultTransportConfig() TransportConfig {
	return TransportConfig{AckTimeout: 1500, BackoffCap: 12000, MaxRetries: 10}
}

// pairKey identifies a directed (src, dst) flow.
type pairKey struct {
	src, dst arch.NodeID
}

// xfer is the sender-side record of one in-flight payload. It is a pooled
// record (DESIGN §4i): the frame lives in it by value and the retransmit
// timer is a method value bound once. The record is released when it has
// left the pending table and its last timer has fired, whichever comes
// second. Arriving copies never reference it: they carry their own frame
// and message, so a late duplicate cannot reach a reused record.
type xfer struct {
	t       *Transport
	f       Frame   // the payload frame, re-sent verbatim on retransmit
	m       Message // the framed wire message; m.Frame points at f
	p       pairKey
	seq     uint64
	gen     uint64 // the transport generation the payload was sent in
	attempt int
	acked   bool // positive ack received (stop retransmitting)
	done    bool // payload handed to the application at the receiver
	listed  bool // still in the pending table
	armed   bool // a retransmit timer is scheduled

	timeoutFn func()
}

// Transport is the machine-wide reliable layer. Like the Network it is
// owned by the simulation event loop — a single instance serves every
// node, which also lets it audit the global exactly-once property: every
// payload sent is delivered exactly once, or its sender observed the
// failure, or the machine rolled the payload back.
type Transport struct {
	net    *Network
	engine *sim.Engine
	stats  *stats.Stats
	cfg    TransportConfig

	// DisableAcks is the deliberately broken build behind the chaos
	// harness self-test (bug "drop-ack"): frames are sent fire-and-forget
	// with the whole ack/retransmit machinery forgotten. Under message
	// loss the exactly-once audit must catch it.
	DisableAcks bool

	// OnUnreachable reports an exhausted retransmit budget toward dst.
	// The machine's detection layer resolves which endpoint actually
	// failed and escalates to node-loss recovery.
	OnUnreachable func(src, dst arch.NodeID)

	nextSeq map[pairKey]uint64
	pending map[pairKey]map[uint64]*xfer
	expect  map[pairKey]uint64            // receiver: next in-order sequence
	held    map[pairKey]map[uint64]func() // receiver: early arrivals awaiting the gap

	// gen counts Resets: a record sent in an earlier generation was
	// abandoned by a freeze and is dropped, never reused. xferFree is the
	// free list of payload records; ackFrame is the frame of the ack being
	// sent (the network copies it during Send, which is synchronous).
	// payloadFn and ackFn are the bound receivers of arriving copies.
	gen              uint64
	xferFree         []*xfer
	ackFrame         Frame
	payloadFn, ackFn func(Frame, Message)

	delivered    uint64
	dupDelivered uint64
	failed       uint64
}

// NewTransport wraps the raw torus. The transport reads the network's
// fault plan on every send: while the plan is empty it is a strict
// passthrough.
func NewTransport(n *Network, cfg TransportConfig) *Transport {
	t := &Transport{
		net: n, engine: n.engine, stats: n.stats, cfg: cfg,
		nextSeq: map[pairKey]uint64{}, pending: map[pairKey]map[uint64]*xfer{},
		expect: map[pairKey]uint64{}, held: map[pairKey]map[uint64]func(){},
	}
	t.payloadFn, t.ackFn = t.receivePayload, t.receiveAck
	return t
}

// Nodes returns the fabric size (Fabric interface).
func (t *Transport) Nodes() int { return t.net.Nodes() }

// Send transmits a message reliably when a fault plan is attached, and
// passes straight through to the raw network otherwise. Node-local
// messages never need the fabric and always bypass framing.
func (t *Transport) Send(m Message) {
	if m.Src == m.Dst || t.net.plan.Empty() {
		t.net.Send(m)
		return
	}
	p := pairKey{m.Src, m.Dst}
	seq := t.nextSeq[p]
	t.nextSeq[p] = seq + 1
	x := t.getXfer()
	x.p, x.seq = p, seq
	x.f = makeFrame(framePayload, seq, m.Src, m.Dst, m.Class, m.Bytes)
	x.m = m
	x.m.Bytes += XportHeaderBytes
	x.m.Frame = &x.f
	x.m.DeliverFrame = t.payloadFn
	if t.pending[p] == nil {
		t.pending[p] = map[uint64]*xfer{}
	}
	t.pending[p][seq] = x
	x.listed = true
	t.net.Send(x.m)
	if !t.DisableAcks {
		t.armTimer(x)
	}
}

// getXfer takes a payload record from the free list (allocating and
// binding one the first time), stamped with the current generation.
func (t *Transport) getXfer() *xfer {
	var x *xfer
	if n := len(t.xferFree); n > 0 {
		x = t.xferFree[n-1]
		t.xferFree[n-1] = nil
		t.xferFree = t.xferFree[:n-1]
	} else {
		x = &xfer{t: t}
		x.timeoutFn = x.timeout
	}
	x.gen, x.attempt = t.gen, 0
	x.acked, x.done = false, false
	return x
}

// unlist removes a resolved payload from the pending table and releases
// its record unless a timer still holds it (the timer releases it then).
func (t *Transport) unlist(x *xfer) {
	delete(t.pending[x.p], x.seq)
	x.listed = false
	if !x.armed {
		x.m = Message{}
		t.xferFree = append(t.xferFree, x)
	}
}

// armTimer schedules the retransmit timeout for attempt x.attempt.
func (t *Transport) armTimer(x *xfer) {
	d := t.cfg.AckTimeout << uint(x.attempt)
	if d > t.cfg.BackoffCap || d <= 0 {
		d = t.cfg.BackoffCap
	}
	x.armed = true
	t.engine.After(d, x.timeoutFn)
}

// timeout is the retransmit timer: resend the payload unless it was
// acknowledged, or declare the peer unreachable once the budget is spent.
func (x *xfer) timeout() {
	t := x.t
	x.armed = false
	switch {
	case x.gen != t.gen:
		return // abandoned by a freeze: dropped, never reused
	case !x.listed:
		x.m = Message{} // resolved while the timer was pending
		t.xferFree = append(t.xferFree, x)
		return
	case x.acked:
		return // held at the receiver; the ack that retires it releases it
	}
	p, seq := x.p, x.seq
	if x.attempt >= t.cfg.MaxRetries {
		if !x.done {
			t.failed++
		}
		t.unlist(x)
		if t.stats != nil {
			t.stats.XportUnreachable++
			t.stats.Trace.Instant(trace.XportEscalation, int(p.src), uint64(p.dst))
		}
		if t.OnUnreachable != nil {
			t.OnUnreachable(p.src, p.dst)
		}
		return
	}
	x.attempt++
	if t.stats != nil {
		t.stats.XportRetransmits++
		t.stats.Trace.Instant(trace.XportRetransmit, int(p.src), seq)
	}
	t.net.Send(x.m)
	t.armTimer(x)
}

// receivePayload runs at the destination for every arriving copy of a
// payload frame. The flow, sequence number and payload come from the copy
// itself (the sequence number from its intact frame).
func (t *Transport) receivePayload(fr Frame, m Message) {
	if !fr.OK() {
		if t.stats != nil {
			t.stats.XportCorruptsCaught++
		}
		return // dropped; the sender's timer retransmits
	}
	p, seq, payload := pairKey{m.Src, m.Dst}, fr.Seq(), m.Deliver
	exp := t.expect[p]
	switch {
	case seq < exp:
		// Already delivered (a duplicate or a retransmission whose ack
		// was lost). Suppress, but re-ack so the sender stops.
		if t.stats != nil {
			t.stats.XportDupsDropped++
		}
		t.sendAck(p, seq)
	case seq == exp:
		t.deliverInOrder(p, seq, payload)
		t.sendAck(p, seq)
	default: // early: a gap precedes it
		if t.held[p] == nil {
			t.held[p] = map[uint64]func(){}
		}
		if _, dup := t.held[p][seq]; dup {
			if t.stats != nil {
				t.stats.XportDupsDropped++
			}
		} else {
			t.held[p][seq] = payload
		}
		t.sendAck(p, seq) // selective ack: stop its retransmission
	}
}

// deliverInOrder hands the in-order payload to the application and drains
// any held successors.
func (t *Transport) deliverInOrder(p pairKey, seq uint64, payload func()) {
	for {
		if x := t.pending[p][seq]; x != nil {
			if x.done {
				t.dupDelivered++
			}
			x.done = true
		}
		t.delivered++
		t.expect[p] = seq + 1
		payload()
		seq++
		next, ok := t.held[p][seq]
		if !ok {
			return
		}
		delete(t.held[p], seq)
		payload = next
	}
}

// sendAck returns a positive acknowledgment for seq. Acks ride the same
// lossy fabric (they can be dropped, corrupted or duplicated themselves)
// in the transport-overhead traffic class. The broken drop-ack build sends
// nothing.
func (t *Transport) sendAck(p pairKey, seq uint64) {
	if t.DisableAcks {
		return
	}
	t.ackFrame = makeFrame(frameAck, seq, p.dst, p.src, stats.ClassXport, ControlBytes)
	if t.stats != nil {
		t.stats.XportAcks++
	}
	t.net.Send(Message{
		Src: p.dst, Dst: p.src, Bytes: ControlBytes, Class: stats.ClassXport,
		Frame: &t.ackFrame, DeliverFrame: t.ackFn,
	})
}

// receiveAck runs at the original sender when an ack arrives.
func (t *Transport) receiveAck(fr Frame, m Message) {
	if !fr.OK() {
		if t.stats != nil {
			t.stats.XportCorruptsCaught++
		}
		return
	}
	x, ok := t.pending[pairKey{m.Dst, m.Src}][fr.Seq()]
	if !ok {
		return // already resolved (duplicate ack)
	}
	x.acked = true
	if x.done {
		t.unlist(x)
	}
	// An acked-but-not-delivered frame sits in the receiver's reorder
	// buffer; the record stays for the exactly-once audit until the gap
	// before it fills.
}

// Reset abandons all transport state at a machine freeze: in-flight
// payloads are rolled back with everything else, and the resumed machine
// starts fresh sequence spaces. The duplicate-delivery audit counter
// survives — a duplicate delivery is a bug no rollback excuses.
func (t *Transport) Reset() {
	t.gen++
	t.nextSeq = map[pairKey]uint64{}
	t.pending = map[pairKey]map[uint64]*xfer{}
	t.expect = map[pairKey]uint64{}
	t.held = map[pairKey]map[uint64]func(){}
}

// Outstanding counts payloads sent but neither delivered nor failed —
// in-flight work. At a genuine quiescent point (event queue drained, no
// freeze pending) it must be zero.
func (t *Transport) Outstanding() int {
	n := 0
	for _, m := range t.pending {
		for _, x := range m {
			if !x.done {
				n++
			}
		}
	}
	return n
}

// Delivered and Failed expose the audit counters for reporting.
func (t *Transport) Delivered() uint64 { return t.delivered }
func (t *Transport) Failed() uint64    { return t.failed }

// Verify checks the exactly-once property: no payload was ever handed to
// the application twice, and — at a final quiescent point (final true:
// the event queue has fully drained) — every payload sent was delivered,
// explicitly failed, or rolled back by a freeze. The drop-ack broken build
// trips the second check: its lost frames are never retransmitted and
// their senders never observe the failure.
func (t *Transport) Verify(final bool) error {
	if t.dupDelivered > 0 {
		return fmt.Errorf("transport: %d duplicate payload deliveries (dedup failed)", t.dupDelivered)
	}
	if final {
		if n := t.Outstanding(); n > 0 {
			return fmt.Errorf("transport: %d payload(s) sent but neither delivered nor observed failed (exactly-once violated)", n)
		}
	}
	return nil
}
