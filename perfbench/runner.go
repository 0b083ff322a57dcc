package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
)

// minReps is the fewest repetitions an untimed run makes, so every
// end-to-end time is a median of at least three samples even when one
// repetition is longer than a third of the run.
const minReps = 3

// A run makes set-ups on top of the one in each repetition, so setup_s is
// a median of many samples even for runs with few repetitions: at least
// minSetups, and more until setupBudget has passed, at most maxSetups.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = 50 * time.Millisecond
)

// profileHz is the CPU profiler's sampling rate in the traced run.
const profileHz = 500

// runner drives one workload for one run and collects its samples.
type runner struct {
	seed  uint64
	spans *spanLog

	rep int // current repetition, 1-based; 0 during extra set-ups
	cur int // innermost open span of the driving goroutine, -1 at the top

	// Raw samples: one per repetition unless noted.
	setupS   []float64 // one per set-up
	wallS    []float64
	cpuS     []float64
	reqMS    []float64 // one per user request
	coldMS   []float64 // serve-mix only: first-time requests
	cachedMS []float64 // serve-mix only: repeats
	repWall  time.Duration
	repCPU   time.Duration

	attempted, failed int
	failures          []string

	digest    string // digest of the simulated output, fixed across reps
	statsJSON []byte // last simulated stats, recorded for comparisons

	// counts are per-layer counters of the last repetition (the
	// simulation is deterministic, so every repetition gives the same).
	counts map[string]float64

	// layerNS, when non-nil, turns on the CPU profiler around every
	// measured operation and accumulates its samples' CPU time per layer.
	layerNS map[string]int64
	profErr error
}

func newRunner(seed uint64) *runner {
	return &runner{seed: seed, spans: newSpanLog(), cur: -1, counts: map[string]float64{}}
}

// call runs fn inside a span named name, nested under the open span.
func (r *runner) call(name string, fn func()) time.Duration {
	id := r.spans.begin(name, r.rep, r.cur)
	parent := r.cur
	r.cur = id
	fn()
	r.cur = parent
	return r.spans.end(id)
}

// setup runs fn as one set-up and records its duration as a setup_s sample.
func (r *runner) setup(fn func()) {
	d := r.call("setup", fn)
	r.setupS = append(r.setupS, d.Seconds())
}

// measure runs fn as (part of) the repetition's measured operation: its
// wall and process CPU time count towards wall_s and cpu_s.
func (r *runner) measure(name string, fn func()) time.Duration {
	var prof bytes.Buffer
	if r.layerNS != nil {
		// pprof's 100 Hz gives a 5 s repetition too few samples to tell
		// 9% from 11%. Setting the rate first makes StartCPUProfile keep
		// it; the runtime then prints one "cannot set cpu profile rate"
		// line to standard error, which is expected.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			r.profErr = fmt.Errorf("start CPU profile: %w", err)
		}
	}
	c0 := cpuTime()
	d := r.call(name, fn)
	r.repCPU += cpuTime() - c0
	r.repWall += d
	if r.layerNS != nil && r.profErr == nil {
		pprof.StopCPUProfile()
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			r.profErr = err
		} else {
			p.attribute(r.layerNS)
		}
	}
	return d
}

// check counts one correctness check, and a failure when err is non-nil.
func (r *runner) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.fail(fmt.Sprintf("%s: %v", what, err))
	}
}

// fail records a failed operation that was already counted as attempted.
func (r *runner) fail(msg string) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf("rep %d: %s", r.rep, msg))
	}
}

// setDigest records the digest of one repetition's simulated output; a
// digest that differs from an earlier repetition's is a failed check.
func (r *runner) setDigest(b []byte) {
	sum := sha256.Sum256(b)
	d := hex.EncodeToString(sum[:8])
	r.attempted++
	if r.digest != "" && r.digest != d {
		r.fail(fmt.Sprintf("output digest %s differs from an earlier repetition's %s", d, r.digest))
		return
	}
	r.digest = d
}

// doRep runs one repetition of w.
func (r *runner) doRep(w *workload) time.Duration {
	runtime.GC()
	r.rep++
	r.repWall, r.repCPU = 0, 0
	alloc := totalAllocMB()
	d := r.call("rep", func() { w.rep(r) })
	r.counts["gc.alloc_mb"] = totalAllocMB() - alloc
	r.wallS = append(r.wallS, r.repWall.Seconds())
	r.cpuS = append(r.cpuS, r.repCPU.Seconds())
	if !w.requests {
		r.reqMS = append(r.reqMS, r.repWall.Seconds()*1e3)
	}
	return d
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak live heap: the bytes the latest collection
// marked live, polled from runtime/metrics, which reads without stopping
// the world. Unlike the heap's total object bytes it leaves out garbage
// not yet swept, which depends on when collections happen to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// finish stops the sampler, waits for it and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// totalAllocMB returns the bytes allocated since the process started.
func totalAllocMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
