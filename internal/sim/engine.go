// Package sim provides the discrete-event simulation kernel used by every
// timed component in the machine model: an event queue ordered by simulated
// time, occupancy-based resources for contention modeling, and a
// deterministic PRNG.
//
// Simulated time is measured in integer nanoseconds. The modeled processors
// run at 1 GHz, so one nanosecond is one processor cycle; the constants in
// the architecture configuration (Table 3 of the ReVive paper) are all
// expressed directly in nanoseconds.
package sim

import (
	"errors"
	"math/bits"
)

// Time is a point in (or duration of) simulated time, in nanoseconds.
type Time int64

// Convenient duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// The event queue is a timing wheel over the near future backed by an
// overflow heap for everything beyond the window. Component latencies are
// tens to hundreds of nanoseconds, so with a window of a few microseconds
// almost every event is scheduled and dispatched in O(1): an append into
// the bucket of its nanosecond, and a two-word bitmap scan to find the
// next non-empty bucket. Only long timers (checkpoint ticks, transport
// timeouts) and the tail of each window take the heap path.
const (
	wheelBits = 12
	wheelSize = 1 << wheelBits // window width in nanoseconds (buckets)
)

// bucket holds the events of one nanosecond in FIFO order. head indexes
// the next event to run; consumed slots are nilled for the garbage
// collector and the slice is reset once drained, so steady state appends
// reuse the same backing array.
type bucket struct {
	fns  []func()
	head int
}

// event is a heap-resident callback. seq breaks ties so that events
// scheduled earlier at the same timestamp run first (stable FIFO order);
// wheel buckets get that ordering for free from append order.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// overflowHeap is a 4-ary min-heap ordered by (at, seq) holding the
// events beyond the wheel window. Four-way branching halves the sift
// depth of a binary heap.
type overflowHeap []event

func (h overflowHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *overflowHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *overflowHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the closure for the garbage collector
	s = s[:n]
	*h = s
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.less(c, min) {
				min = c
			}
		}
		if !s.less(min, i) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Engine is a discrete-event simulator. It is single-threaded: all
// component state in the machine model is owned by the engine's event loop
// and no locking is needed anywhere in the simulator.
type Engine struct {
	now   Time
	seq   uint64
	steps uint64 // events executed over the engine's lifetime

	// Timing wheel over [wheelStart, wheelStart+wheelSize). Invariants:
	// wheelStart <= now whenever user code can observe the engine (slide
	// moves it ahead transiently inside Step, which immediately advances
	// now to match), every wheel event's time is inside the window, and
	// every overflow event's time is at or beyond its end — so the next
	// event is always in the wheel when count > 0.
	wheelStart Time
	count      int // events in the wheel
	buckets    [wheelSize]bucket

	// Two-level occupancy bitmap: bit b of words[w] covers bucket w*64+b,
	// bit w of summary covers words[w]. Finding the next non-empty bucket
	// is two trailing-zero scans.
	words   [wheelSize / 64]uint64
	summary uint64

	overflow overflowHeap
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled events that have not yet run.
func (e *Engine) Pending() int { return e.count + len(e.overflow) }

// At schedules fn to run at absolute time t: in the wheel if t is inside
// the window, in the overflow heap otherwise. Scheduling in the past
// panics: it always indicates a modeling bug (an effect preceding its
// cause).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	if idx := t - e.wheelStart; idx < wheelSize {
		b := &e.buckets[idx]
		b.fns = append(b.fns, fn)
		e.words[idx>>6] |= 1 << (uint64(idx) & 63)
		e.summary |= 1 << (uint64(idx) >> 6)
		e.count++
		return
	}
	e.seq++
	e.overflow.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) {
	e.At(e.now+d, fn)
}

// firstIdx returns the lowest non-empty bucket index. count must be > 0.
func (e *Engine) firstIdx() int {
	w := bits.TrailingZeros64(e.summary)
	return w<<6 | bits.TrailingZeros64(e.words[w])
}

// refill pulls every overflow event inside the current wheel window into
// its bucket. Heap pops come out in (at, seq) order, so bucket FIFO order
// stays correct.
func (e *Engine) refill() {
	limit := e.wheelStart + wheelSize
	for len(e.overflow) > 0 && e.overflow[0].at < limit {
		ev := e.overflow.pop()
		idx := ev.at - e.wheelStart
		b := &e.buckets[idx]
		b.fns = append(b.fns, ev.fn)
		e.words[idx>>6] |= 1 << (uint64(idx) & 63)
		e.summary |= 1 << (uint64(idx) >> 6)
		e.count++
	}
}

// slide advances the window to the earliest overflow event and refills the
// wheel from the heap. Only legal when the wheel is empty.
func (e *Engine) slide() {
	e.wheelStart = e.overflow[0].at
	e.refill()
}

// nextAt returns the timestamp of the next pending event.
func (e *Engine) nextAt() (Time, bool) {
	if e.count > 0 {
		return e.wheelStart + Time(e.firstIdx()), true
	}
	if len(e.overflow) > 0 {
		return e.overflow[0].at, true
	}
	return 0, false
}

// Step runs the single next event, advancing the clock to its timestamp.
// It returns false if no events remain.
func (e *Engine) Step() bool {
	if e.count == 0 {
		if len(e.overflow) == 0 {
			return false
		}
		e.slide()
	}
	idx := e.firstIdx()
	b := &e.buckets[idx]
	fn := b.fns[b.head]
	b.fns[b.head] = nil // release the closure for the garbage collector
	b.head++
	if b.head == len(b.fns) {
		b.fns = b.fns[:0]
		b.head = 0
		e.words[idx>>6] &^= 1 << (uint64(idx) & 63)
		if e.words[idx>>6] == 0 {
			e.summary &^= 1 << (uint64(idx) >> 6)
		}
	}
	e.count--
	e.now = e.wheelStart + Time(idx)
	e.steps++
	fn()
	return true
}

// Steps returns the number of events executed since the engine was
// created. It survives Reset (unlike the clock, it is a measure of work
// done, not of model state) — progress reporting uses it as the
// "events so far" figure.
func (e *Engine) Steps() uint64 { return e.steps }

// ParallelRounds always returns 0.
//
// Deprecated: the engine has no parallel rounds; the method remains for
// callers that still report the count.
func (e *Engine) ParallelRounds() uint64 { return 0 }

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled beyond t remain pending.
//
// When the advance leaves the clock past the wheel window (a long quiet
// skip, e.g. a node's unavailability window during fault injection), the
// empty wheel is re-anchored at the new now — otherwise every event
// scheduled after the skip would detour through the overflow heap even
// when it lands nanoseconds away.
func (e *Engine) RunUntil(t Time) {
	for {
		at, ok := e.nextAt()
		if !ok || at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
	if e.count == 0 && e.now > e.wheelStart {
		e.wheelStart = e.now
		e.refill()
	}
}

// RunWhile executes events until cond returns false or the queue drains.
// cond is evaluated before each event.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// Watchdog errors returned by RunGuarded.
var (
	// ErrStalled: the event queue drained before the watched condition
	// was met — the system cannot make further progress on its own (for
	// a machine run, processors unfinished with nothing scheduled).
	ErrStalled = errors.New("sim: event queue drained before the watched condition was met (stall)")
	// ErrLivelock: the event budget was exhausted while events kept
	// firing — the system is busy but not converging.
	ErrLivelock = errors.New("sim: event budget exhausted (livelock suspected)")
)

// RunGuarded executes events until done reports true, guarding against the
// two ways a simulation fails to terminate: a *stall* (queue drained with
// the goal unmet) and a *livelock* (more than maxEvents events fire without
// the goal being met; maxEvents <= 0 means no budget). It is the fault-
// campaign watchdog: chaos runs use it everywhere a plain Run could hang a
// campaign on a buggy build.
func (e *Engine) RunGuarded(maxEvents uint64, done func() bool) error {
	var n uint64
	for !done() {
		if !e.Step() {
			return ErrStalled
		}
		n++
		if maxEvents > 0 && n >= maxEvents {
			return ErrLivelock
		}
	}
	return nil
}

// Reset drops every pending event, preserving the clock. Fault injection
// uses it to model fail-stop: all in-flight work is abandoned at the
// instant of the error, and recovery rebuilds consistent state. The
// abandoned slots are zeroed first — their closures capture caches,
// controllers and whole machine graphs, which would otherwise stay
// reachable through the retained backing arrays (the same GC-release
// idiom Step and pop use).
func (e *Engine) Reset() {
	for i := range e.buckets {
		b := &e.buckets[i]
		for j := b.head; j < len(b.fns); j++ {
			b.fns[j] = nil
		}
		b.fns = b.fns[:0]
		b.head = 0
	}
	e.words = [wheelSize / 64]uint64{}
	e.summary = 0
	e.count = 0
	for i := range e.overflow {
		e.overflow[i] = event{}
	}
	e.overflow = e.overflow[:0]
	e.wheelStart = e.now
}
