package main

import (
	"encoding/json"
	"fmt"

	"revive"
	"revive/internal/chaos"
	"revive/internal/machine"
	"revive/internal/sim"
	"revive/internal/stats"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// requests reports whether rep records one latency per request
	// itself; otherwise each repetition counts as one request.
	requests bool
	// setupOnly performs one set-up and discards it.
	setupOnly func(r *runner)
	// rep performs one repetition: set-up, the measured operation and
	// the checks of its output.
	rep func(r *runner)
	// micro names the operation stream the per-layer microdrivers replay.
	micro microInput
	// sim reports whether rep holds the machine itself and records its
	// verification and recovery times; otherwise the traced run takes
	// them from machineProbe.
	sim bool
}

// workloads returns the benchmark's workloads in the order they are listed.
// chaosSeed is the master seed of chaos10's campaigns.
func workloads(chaosSeed uint64) []*workload {
	return []*workload{
		simWorkload("fft16", "memory-system-bound FFT on the paper's 16-node machine; the checkpoint-cost outlier",
			"FFT", revive.Options{}),
		simWorkload("water16", "Water-Sp on the same machine: cache hits and the engine dominate, mem and log are bypassed",
			"Water-Sp", revive.Options{}),
		chaosWorkload(chaosSeed),
		simWorkload("fft64-sharded", "64-node Quick FFT on 2 shards: the only workload that executes parallel rounds",
			"FFT", revive.Options{Nodes: 64, Quick: true, Shards: 2}),
		serveMixWorkload(),
	}
}

func lookupWorkload(name string, chaosSeed uint64) (*workload, bool) {
	for _, w := range workloads(chaosSeed) {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// simWorkload runs one SPLASH-2 application on an evaluation-regime
// machine (ReVive 7+1 parity, the default backend) with empty caches, then
// verifies the machine and recovers it from the loss of node 0.
func simWorkload(name, why, appName string, o revive.Options) *workload {
	cfg := revive.EvalConfig(o)
	app := mustApp(appName, o)
	build := func(r *runner) *machine.Machine {
		var m *machine.Machine
		r.setup(func() {
			r.call("New", func() { m = revive.New(cfg) })
			r.call("Load", func() { m.Load(app) })
		})
		return m
	}
	return &workload{
		name: name, why: why, sim: true,
		setupOnly: func(r *runner) { build(r) },
		rep: func(r *runner) {
			m := build(r)
			var st *stats.Stats
			r.measure("Run", func() { st = m.Run() })
			b, err := json.Marshal(st)
			if err != nil {
				r.check("encode stats", err)
				return
			}
			r.statsJSON = b
			r.setDigest(b)
			simCounts(r, m, st)
			if checkMachine(r, m) {
				r.counts["core.recoveries"] = 1
			}
		},
		micro: microInput{app: app.Profile, nodes: cfg.Nodes},
	}
}

// checkMachine verifies a finished machine, then recovers it from the
// paper's worst case, the permanent loss of a whole node (node 0), to the
// last committed checkpoint and verifies parity again. It reports whether
// the recovery succeeded.
func checkMachine(r *runner, m *machine.Machine) bool {
	verifyMachine(r, m)
	var err error
	d := r.call("Recover", func() {
		m.InjectNodeLoss(0)
		_, err = m.Recover(0, m.Ckpt.Epoch())
	})
	r.check("Recover", err)
	if err != nil {
		return false
	}
	r.counts["machine.recover_s"] = d.Seconds()
	r.check("VerifyParity after recovery", m.VerifyParity())
	return true
}

// verifyMachine runs the machine-wide invariant checks at quiescence.
func verifyMachine(r *runner, m *machine.Machine) {
	d := r.call("Verify", func() {
		for _, v := range []struct {
			name string
			fn   func() error
		}{
			{"VerifyParity", m.VerifyParity},
			{"VerifyLog", m.VerifyLog},
			{"VerifyLBits", m.VerifyLBits},
			{"VerifyCoherence", m.VerifyCoherence},
			{"VerifyTransport", m.VerifyTransport},
		} {
			var err error
			r.call(v.name, func() { err = v.fn() })
			r.check(v.name, err)
		}
	})
	r.counts["machine.verify_s"] = d.Seconds()
}

// simCounts records the per-layer work counters of one finished run.
func simCounts(r *runner, m *machine.Machine, st *stats.Stats) {
	var msgs, bytes, memAcc uint64
	for c := 0; c < int(stats.NumClasses); c++ {
		msgs += st.NetMsgs[c]
		bytes += st.NetBytes[c]
		memAcc += st.MemAccesses[c]
	}
	var dirEntries, lines int
	for n := range m.Mems {
		dirEntries += m.Dirs[n].Entries()
		lines += m.Mems[n].LinesStored()
	}
	c := r.counts
	c["sim.events"] = float64(m.Engine.Steps())
	c["sim.parallel_rounds"] = float64(m.Engine.ParallelRounds())
	c["proc.instructions"] = float64(st.Instructions)
	c["cache.l1_hits"] = float64(st.L1Hits)
	c["cache.l1_misses"] = float64(st.L1Misses)
	c["cache.l2_hits"] = float64(st.L2Hits)
	c["cache.l2_misses"] = float64(st.L2Misses)
	c["coherence.dir_entries"] = float64(dirEntries)
	c["network.msgs"] = float64(msgs)
	c["network.bytes"] = float64(bytes)
	c["network.xport_retransmits"] = float64(st.XportRetransmits)
	c["mem.accesses"] = float64(memAcc)
	c["mem.log_accesses"] = float64(st.MemAccesses[stats.ClassLog])
	c["mem.parity_accesses"] = float64(st.MemAccesses[stats.ClassParity])
	c["mem.lines_stored"] = float64(lines)
	c["core.checkpoints"] = float64(st.Checkpoints)
	c["core.log_bytes_peak"] = float64(st.LogBytesPeak)
	c["machine.sim_exec_ns"] = float64(st.ExecTime)
}

// chaosCampaigns is the batch size of one chaos10 repetition.
const chaosCampaigns = 10

// chaosWorkload runs the fault campaigns chaos.Run runs for master seed
// seed at Parallelism 1 under the default backend: campaign seeds are drawn
// from the master seed in order, each schedule is generated from its seed
// and executed with its full invariant registry. Calling RunSchedule per
// campaign instead of chaos.Run gives each campaign its own span; a healthy
// batch runs exactly the same schedules (chaos.Run only adds shrinking of
// failing ones).
//
// The master seed is not --seed: campaign cost depends on the campaigns
// drawn (one repetition takes 5.3-7.5 s across seeds 1-5), a spread wider
// than any bound a run-to-run comparison can use. It defaults to 1, the
// batch CI runs; -chaos-seed selects a held-out batch.
func chaosWorkload(seed uint64) *workload {
	w := &workload{
		name:  "chaos10",
		why:   "10 seeded fault campaigns: verification reads, recovery log walks and retransmits, not log appends",
		micro: microInput{app: mustApp("FFT", revive.Options{Quick: true}).Profile, nodes: 16},
	}
	var scheds []chaos.Schedule
	w.setupOnly = func(r *runner) {
		r.setup(func() {
			master := sim.NewRand(seed)
			scheds = scheds[:0]
			for i := 0; i < chaosCampaigns; i++ {
				scheds = append(scheds, chaos.Generate(master.Uint64()))
			}
		})
	}
	w.rep = func(r *runner) {
		w.setupOnly(r)
		outs := make([]*chaos.Outcome, len(scheds))
		r.measure("chaos.Run", func() {
			for i, s := range scheds {
				r.call("RunSchedule", func() { outs[i] = chaos.RunSchedule(s) })
			}
		})
		b, err := json.Marshal(outs)
		if err != nil {
			r.check("encode outcomes", err)
			return
		}
		r.setDigest(b)
		var checks, recoveries int
		var retrans, endNS uint64
		for i, o := range outs {
			checks += o.Checks
			// Each invariant evaluation is one attempted check; each
			// violation is one failed check.
			r.attempted += o.Checks
			for _, v := range o.Violations {
				r.fail(fmt.Sprintf("campaign %d (seed %#x): %v", i, scheds[i].Seed, v))
			}
			if o.Recovered {
				recoveries++
			}
			retrans += o.Retransmits
			endNS += uint64(o.EndAt)
		}
		c := r.counts
		c["chaos.checks"] = float64(checks)
		c["core.recoveries"] = float64(recoveries)
		c["network.xport_retransmits"] = float64(retrans)
		c["machine.sim_exec_ns"] = float64(endNS)
	}
	return w
}

func mustApp(name string, o revive.Options) revive.App {
	a, ok := revive.AppByName(name, o)
	if !ok {
		panic("perfbench: unknown application " + name)
	}
	return a
}
