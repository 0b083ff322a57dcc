package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"revive"
	"revive/internal/arch"
	"revive/internal/cache"
	"revive/internal/machine"
	"revive/internal/mem"
	"revive/internal/network"
	"revive/internal/serve"
	"revive/internal/sim"
	"revive/internal/stats"
	wl "revive/internal/workload"
)

// microInput is the operation stream a workload's microdrivers replay: the
// first microOps operations its processors issue, round-robin.
type microInput struct {
	app   wl.Profile
	nodes int
}

const (
	microOps    = 100_000 // operations replayed per round
	microRounds = 5       // rounds per driver; the median round is reported
)

// microOp is one replayed operation with the processor that issued it.
type microOp struct {
	proc int
	op   wl.Op
}

// ops draws the first n operations of the workload's streams.
func (in microInput) ops(n int) []microOp {
	streams := in.app.Streams(in.nodes)
	out := make([]microOp, 0, n)
	for len(out) < n {
		progressed := false
		for p, s := range streams {
			if op, ok := s.Next(); ok {
				out = append(out, microOp{p, op})
				progressed = true
				if len(out) == n {
					break
				}
			}
		}
		if !progressed {
			break
		}
	}
	return out
}

// perOp runs round microRounds times and returns the median time per
// operation in nanoseconds; round returns how many operations it did.
func perOp(round func() int) float64 {
	var xs []float64
	for i := 0; i < microRounds; i++ {
		t0 := time.Now()
		n := round()
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(max(n, 1)))
	}
	return median(xs)
}

// runMicro runs every layer microdriver on the workload's own operations
// and stores the *_ns metrics.
func runMicro(r *runner, in microInput) {
	ops := in.ops(microOps)
	cfg := revive.EvalConfig(revive.Options{Nodes: in.nodes})
	topo := arch.Topology{Nodes: in.nodes, GroupSize: cfg.GroupSize}
	c := r.counts

	// Stream generation, one Next per operation.
	c["workload.next_ns"] = perOp(func() int {
		streams := in.app.Streams(in.nodes)
		n := 0
		for n < len(ops) {
			for _, s := range streams {
				if _, ok := s.Next(); ok {
					n++
				}
			}
		}
		return n
	})

	// Event engine: schedule one event per operation at its issue time
	// (the per-processor running sum of gaps), then step them all.
	noop := func() {}
	c["sim.step_ns"] = perOp(func() int {
		e := sim.NewEngine()
		clock := make([]sim.Time, in.nodes)
		for _, o := range ops {
			clock[o.proc] += sim.Time(o.op.Gap + 1)
			e.At(clock[o.proc], noop)
		}
		n := 0
		for e.Step() {
			n++
		}
		return n
	})

	// L1 lookups, inserting on a miss as the cache controller does.
	c["cache.lookup_ns"] = perOp(func() int {
		ch := cache.New(sim.NewEngine(), cfg.L1)
		for _, o := range ops {
			line := o.op.Addr.Line()
			if ch.Lookup(line) == nil {
				ch.InsertPinned(line, cache.Shared, arch.Data{}, nil)
			}
		}
		return len(ops)
	})

	// Memory image: home each line as first touch would, then poke and
	// peek the node-local addresses.
	amap := arch.NewAddressMap(topo)
	phys := make([]arch.PhysLine, len(ops))
	for i, o := range ops {
		phys[i] = amap.TouchLine(o.op.Addr.Line(), arch.NodeID(o.proc))
	}
	newMems := func() []*mem.Memory {
		e := sim.NewEngine()
		ms := make([]*mem.Memory, in.nodes)
		for n := range ms {
			ms[n] = mem.New(e.Context(0), cfg.Mem)
		}
		return ms
	}
	poke := func(ms []*mem.Memory) {
		for i, p := range phys {
			var d arch.Data
			d[0] = byte(i) | 1 // non-zero: zero lines are not stored
			ms[p.Node].Poke(p.MemAddr(), d)
		}
	}
	c["mem.poke_ns"] = perOp(func() int { poke(newMems()); return len(phys) })
	ms := newMems()
	poke(ms)
	c["mem.peek_ns"] = perOp(func() int {
		for _, p := range phys {
			ms[p.Node].Peek(p.MemAddr())
		}
		return len(phys)
	})

	// Torus sends from each issuing processor to the line's home node,
	// draining the engine every 1024 messages so queues stay bounded.
	c["network.send_ns"] = perOp(func() int {
		e := sim.NewEngine()
		ncfg := cfg.Net
		ncfg.DimX, ncfg.DimY = network.TorusShape(in.nodes)
		net, err := network.New(e, ncfg, stats.New())
		if err != nil {
			panic(err)
		}
		for i, o := range ops {
			net.Send(network.Message{Src: arch.NodeID(o.proc), Dst: phys[i].Node,
				Bytes: arch.LineBytes + 8, Class: stats.ClassRead, Deliver: noop})
			if i%1024 == 1023 {
				e.Run()
			}
		}
		e.Run()
		return len(ops)
	})
}

// machineProbe runs the workload's micro input to completion on a Quick
// evaluation machine and checks it as the simulator workloads check theirs.
// It gives machine.verify_s and machine.recover_s to the workloads that
// reach the machine only through chaos or serve.
func machineProbe(r *runner, in microInput) {
	var m *machine.Machine
	r.call("probe New+Load", func() {
		m = revive.New(revive.EvalConfig(revive.Options{Nodes: in.nodes, Quick: true}))
		m.Load(in.app)
	})
	r.call("probe Run", func() { m.Run() })
	checkMachine(r, m)
}

// serveProbe drives a fresh in-process daemon with one cold request and
// probeRepeats cached repeats, then restarts it. It gives the serve.*
// metrics to the workloads that do not go through serve.
func serveProbe(r *runner, base string) error {
	dir, err := os.MkdirTemp(base, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := serve.New(serve.Options{StateDir: dir})
	if err != nil {
		return fmt.Errorf("serve.New: %w", err)
	}
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	body := []byte(`{"kind":"sim","apps":["Water-Sp"],"nodes":8,"quick":true}`)
	var first []byte
	for i := 0; i <= probeRepeats && err == nil; i++ {
		t0 := time.Now()
		var status int
		var b []byte
		status, b, err = post(client, ts.URL+"/run", body)
		ms := time.Since(t0).Seconds() * 1e3
		switch {
		case err != nil:
		case status != http.StatusOK:
			err = fmt.Errorf("status %d: %s", status, b)
		case i == 0:
			first = b
			r.coldMS = append(r.coldMS, ms)
		case !bytes.Equal(b, first):
			err = errors.New("cached response differs from the first")
		default:
			r.cachedMS = append(r.cachedMS, ms)
		}
	}
	client.CloseIdleConnections()
	ts.Close()
	if err != nil {
		srv.Shutdown(context.Background())
		return fmt.Errorf("serve probe: %w", err)
	}
	cs := srv.Counters()
	r.counts["serve.deduped"] = float64(cs.Deduped)
	r.counts["serve.cache_hits"] = float64(cs.CacheHits)
	t0 := time.Now()
	if err := srv.Shutdown(context.Background()); err != nil {
		return fmt.Errorf("serve probe shutdown: %w", err)
	}
	if srv, err = serve.New(serve.Options{StateDir: dir}); err != nil {
		return fmt.Errorf("serve probe restart: %w", err)
	}
	r.counts["serve.restart_ms"] = time.Since(t0).Seconds() * 1e3
	return srv.Shutdown(context.Background())
}

// probeRepeats is the number of cached requests the serve probe sends.
const probeRepeats = 200

// runServeMicro times serve.Journal.Append (one fsynced record each) and
// serve.Cache.Get of one result-sized entry, on fresh directories under
// base, and stores the *_us metrics.
func runServeMicro(r *runner, base string) error {
	dir, err := os.MkdirTemp(base, "micro-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	j, _, err := serve.OpenJournal(dir+"/journal", func(string, ...any) {}, nil)
	if err != nil {
		return fmt.Errorf("open journal: %w", err)
	}
	req := json.RawMessage(`{"kind":"sim","apps":["FFT"],"nodes":8,"quick":true,"strategy":"revive"}`)
	var appendUS []float64
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		if err := j.Append(&serve.Record{Op: "accepted", Job: fmt.Sprintf("%064x", i), Req: req}); err != nil {
			j.Close()
			return fmt.Errorf("journal append: %w", err)
		}
		appendUS = append(appendUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if err := j.Close(); err != nil {
		return fmt.Errorf("close journal: %w", err)
	}
	r.counts["serve.journal_append_us"] = median(appendUS)

	c, err := serve.OpenCache(dir+"/cache", nil)
	if err != nil {
		return fmt.Errorf("open cache: %w", err)
	}
	id := fmt.Sprintf("%064x", 1)
	blob := make([]byte, 1400) // the size of one 8-node sim result
	if err := c.Put(id, blob); err != nil {
		return fmt.Errorf("cache put: %w", err)
	}
	var getUS []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if _, ok := c.Get(id); !ok {
			return fmt.Errorf("cache get: entry %s missing", id)
		}
		getUS = append(getUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	r.counts["serve.cache_get_us"] = median(getUS)
	return nil
}
