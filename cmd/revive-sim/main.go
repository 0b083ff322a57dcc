// Command revive-sim runs one workload on one machine configuration and
// prints the execution statistics: the interactive front door to the
// simulator.
//
// Usage:
//
//	revive-sim -app FFT                      # ReVive, 7+1 parity, Cp regime
//	revive-sim -app Radix -baseline          # no recovery support
//	revive-sim -app Ocean -mirror            # mirroring instead of parity
//	revive-sim -app FFT -strategy inline-log # alternative recovery backend
//	revive-sim -app LU -interval 200us       # custom checkpoint interval
//	revive-sim -app FFT -fault cpu-loss      # kill node 5's processor mid-run
//	revive-sim -app FFT -fault mem-partial -fault-frames 16   # partial memory loss
//	revive-sim -app FFT -trace out.json -series out.csv   # observability sinks
//	revive-sim -app FFT -progress            # live per-checkpoint progress on stderr
//	revive-sim -app FFT -json                # machine-readable stats
//	revive-sim -apps FFT,Radix,Ocean -j 4    # multi-app sweep, 4 at a time
//	revive-sim -apps all                     # sweep every application
//	revive-sim -app FFT -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	revive-sim -app FFT -max-events 50000000 # watchdog: typed error, never a hang
//	revive-sim -list                         # the 12 applications
//
// The -apps sweep runs each application on its own machine instance, -j
// at a time (default: all CPUs), and prints one summary row per app. The
// table is byte-identical at every -j (see internal/sweep).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"revive"
	"revive/internal/arch"
	"revive/internal/perf"
	"revive/internal/stats"
	"revive/internal/sweep"
	"revive/internal/trace"
)

func main() {
	var (
		appName  = flag.String("app", "FFT", "application (Table 4 name)")
		appsFlag = flag.String("apps", "", "comma-separated application sweep, or \"all\" (one summary row per app)")
		jobs     = flag.Int("j", 0, "simulations to run in parallel for -apps (0 = all CPUs, 1 = serial)")
		baseline = flag.Bool("baseline", false, "run without recovery support")
		mirror   = flag.Bool("mirror", false, "mirroring instead of 7+1 parity")
		strategy = flag.String("strategy", "", "recovery-strategy backend: "+strings.Join(revive.StrategyNames(), ", ")+" (default "+revive.DefaultStrategy+")")
		noCkpt   = flag.Bool("nockpt", false, "infinite checkpoint interval (CpInf)")
		interval = flag.Duration("interval", 0, "checkpoint interval (e.g. 200us; default: regime)")
		nodes    = flag.Int("nodes", 16, "node count")
		scale    = flag.Int("scale", 100, "divide paper instruction counts by this")
		quick    = flag.Bool("quick", false, "reduced instruction budget")
		list     = flag.Bool("list", false, "list applications and exit")
		util     = flag.Bool("util", false, "print the per-node utilization report")
		record   = flag.String("record", "", "write the workload's trace to this file and exit")
		replay   = flag.String("replay", "", "run a recorded trace instead of an application")
		maxEv    = flag.Uint64("max-events", 0, "watchdog: abort with a typed error after this many events (0 = no budget)")

		faultKind    = flag.String("fault", "", "inject one fault mid-run: node-loss, cpu-loss, mem-partial or transient (detection, rollback and resume are automatic)")
		faultNode    = flag.Int("fault-node", 5, "victim node for -fault (ignored for transient)")
		faultAt      = flag.Duration("fault-at", 0, "error time for -fault (default: 2.5 checkpoint intervals)")
		faultDetect  = flag.Duration("fault-detect", 0, "detection latency for -fault (default: a tenth of the checkpoint interval)")
		faultFrameLo = flag.Int("fault-frame-lo", 0, "first lost frame for -fault mem-partial")
		faultFrames  = flag.Int("fault-frames", 8, "lost frame count for -fault mem-partial")

		progress    = flag.Bool("progress", false, "print per-checkpoint progress (epoch, events, sim-time) to stderr")
		traceOut    = flag.String("trace", "", "write a Chrome trace-event JSON of the run (load in Perfetto)")
		traceEvents = flag.Int("trace-events", 1<<20, "event ring capacity for -trace (the last N events are kept)")
		seriesOut   = flag.String("series", "", "write the per-epoch metric time-series (CSV, or JSON with a .json suffix)")
		jsonOut     = flag.Bool("json", false, "print the run result as machine-readable JSON instead of text")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProfiles, err := perf.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopProfiles()
	// os.Exit skips deferred calls; every early exit below goes through
	// this so a profiled error run still writes complete profiles.
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	o := revive.Options{Nodes: *nodes, Scale: *scale, Quick: *quick}
	if *mirror {
		o.GroupSize = 2
	}
	if err := revive.ValidateStrategy(*strategy); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	if *baseline && *strategy != "" {
		fmt.Fprintln(os.Stderr, "-strategy needs recovery support; drop -baseline")
		exit(2)
	}
	o.Strategy = *strategy
	switch *faultKind {
	case "", "node-loss", "cpu-loss", "mem-partial", "transient":
	default:
		fmt.Fprintf(os.Stderr, "unknown -fault %q (known: node-loss, cpu-loss, mem-partial, transient)\n", *faultKind)
		exit(2)
	}
	if *faultKind != "" {
		if *baseline {
			fmt.Fprintln(os.Stderr, "-fault needs recovery support; drop -baseline")
			exit(2)
		}
		// Processor contexts are snapshotted at every commit whatever the
		// setting; Verify keeps the memory images the restored image is
		// compared against.
		o.Verify = true
	}
	if *list {
		fmt.Printf("%-12s %12s %10s\n", "App", "Paper instr", "Paper miss")
		for _, a := range revive.Apps(o) {
			fmt.Printf("%-12s %11dM %9.2f%%\n", a.Label, a.PaperInstrM, a.PaperMissPct)
		}
		return
	}
	if *appsFlag != "" {
		if *replay != "" || *record != "" || *traceOut != "" || *seriesOut != "" || *faultKind != "" || *progress {
			fmt.Fprintln(os.Stderr, "-apps sweeps are incompatible with -replay, -record, -trace, -series, -fault and -progress")
			exit(2)
		}
		exit(runAppsSweep(o, *appsFlag, *jobs, *baseline, *mirror, *noCkpt, *interval, *jsonOut))
	}
	var wl revive.Workload
	appLabel := *appName
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		wl, err = revive.ReplayTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		appLabel = *replay
	} else {
		app, ok := revive.AppByName(*appName, o)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown application %q (try -list)\n", *appName)
			exit(2)
		}
		wl = app
		if *record != "" {
			f, err := os.Create(*record)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(2)
			}
			if err := revive.RecordTrace(f, app, *nodes); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(2)
			}
			f.Close()
			fmt.Printf("trace of %s (%d processors) written to %s\n", app.Label, *nodes, *record)
			return
		}
	}

	cfg := buildConfig(o, *baseline, *noCkpt, *interval)
	if *traceOut != "" {
		cfg.Trace = trace.New(*traceEvents)
	}
	if *seriesOut != "" {
		cfg.Series = &trace.Series{}
	}

	m := revive.New(cfg)
	m.Load(wl)
	if *progress {
		// One updating line on stderr per committed checkpoint: the same
		// per-epoch hook the daemon streams over SSE. stdout is untouched,
		// so piped output stays byte-identical with and without -progress.
		m.Cfg.OnSample = func(smp trace.Sample) {
			fmt.Fprintf(os.Stderr, "\rprogress: epoch %-6d events %-12d sim %8.2fus",
				smp.Epoch, m.Engine.Steps(), float64(smp.TimeNS)/1e3)
		}
	}
	var faultRep *revive.DetectionReport
	// snapChecked and snapErr record the byte-for-byte comparison of the
	// restored image against the target checkpoint's snapshot.
	var snapChecked bool
	var snapErr error
	if *faultKind != "" {
		at := revive.Time(faultAt.Nanoseconds())
		if at == 0 {
			at = cfg.Checkpoint.Interval * 5 / 2
		}
		det := revive.Time(faultDetect.Nanoseconds())
		if det == 0 {
			det = cfg.Checkpoint.Interval / 10
		}
		victim := revive.NodeID(*faultNode)
		// done runs right after recovery and resume, before any resumed
		// event: memory must equal the target snapshot byte for byte,
		// unless the rollback was scoped to a conelog dependence cone.
		done := func(r revive.DetectionReport) {
			faultRep = &r
			if r.Err != nil || !r.Recovery.ByteExact() {
				return
			}
			snapChecked = true
			if snap, ok := m.SnapshotAt(r.Target); ok {
				snapErr = m.VerifyAgainstSnapshot(snap)
			} else {
				snapErr = fmt.Errorf("no snapshot retained for epoch %d", r.Target)
			}
		}
		switch *faultKind {
		case "node-loss":
			m.ScheduleNodeLoss(at, det, victim, done)
		case "cpu-loss":
			m.ScheduleCPULoss(at, det, victim, done)
		case "mem-partial":
			m.ScheduleMemPartialLoss(at, det, victim,
				arch.Frame(*faultFrameLo), arch.Frame(*faultFrames), done)
		case "transient":
			m.ScheduleTransientError(at, det, done)
		}
	}
	start := time.Now()
	st, runErr := m.RunBudget(*maxEv)
	wall := time.Since(start)
	if *progress {
		fmt.Fprintln(os.Stderr) // terminate the updating progress line
	}
	if runErr != nil {
		// The watchdog fired: ErrLivelock (budget exhausted) or
		// ErrStalled (queue drained early). Typed, not a hang.
		fmt.Fprintln(os.Stderr, "watchdog:", runErr)
		exit(3)
	}
	if *faultKind != "" && faultRep == nil {
		fmt.Fprintln(os.Stderr, "-fault never fired: the run ended before -fault-at; lower it or raise -scale")
		exit(2)
	}

	mode := "ReVive 7+1 parity"
	if *baseline {
		mode = "baseline (no recovery)"
	} else if *mirror {
		mode = "ReVive mirroring"
	}
	if *strategy != "" && *strategy != revive.DefaultStrategy {
		mode += " [" + *strategy + "]"
	}

	if *traceOut != "" {
		if err := writeFileWith(*traceOut, cfg.Trace.WriteChrome); err != nil {
			fmt.Fprintln(os.Stderr, "writing trace:", err)
			exit(2)
		}
	}
	if *seriesOut != "" {
		writer := cfg.Series.WriteCSV
		if strings.HasSuffix(*seriesOut, ".json") {
			writer = cfg.Series.WriteJSON
		}
		if err := writeFileWith(*seriesOut, writer); err != nil {
			fmt.Fprintln(os.Stderr, "writing series:", err)
			exit(2)
		}
	}

	parityOK := true
	var parityErr error
	if !*baseline {
		if parityErr = m.VerifyParity(); parityErr != nil {
			parityOK = false
		}
	}

	if *jsonOut {
		type faultJSON struct {
			Kind        string      `json:"kind"`
			Node        int         `json:"node"` // -1 for transient
			ErrorAtNS   revive.Time `json:"error_at_ns"`
			DetectedNS  revive.Time `json:"detected_at_ns"`
			TargetEpoch uint64      `json:"target_epoch"`
			LostWorkNS  revive.Time `json:"lost_work_ns"`
			Recovery    string      `json:"recovery"` // core.Report.String
			// SnapshotVerified is absent when the image was not compared
			// (failed recovery, or a rollback scoped to a conelog cone).
			SnapshotVerified *bool  `json:"snapshot_verified,omitempty"`
			Error            string `json:"error,omitempty"`
		}
		result := struct {
			App            string       `json:"app"`
			Nodes          int          `json:"nodes"`
			Mode           string       `json:"mode"`
			WallSeconds    float64      `json:"wall_seconds"`
			ParityVerified *bool        `json:"parity_verified,omitempty"` // absent for -baseline
			Fault          *faultJSON   `json:"fault,omitempty"`           // absent without -fault
			Stats          *stats.Stats `json:"stats"`
		}{App: appLabel, Nodes: *nodes, Mode: mode, WallSeconds: wall.Seconds(), Stats: st}
		if !*baseline {
			result.ParityVerified = &parityOK
		}
		if faultRep != nil {
			fj := &faultJSON{
				Kind: *faultKind, Node: int(faultRep.Lost),
				ErrorAtNS: faultRep.ErrorAt, DetectedNS: faultRep.DetectedAt,
				TargetEpoch: faultRep.Target, LostWorkNS: faultRep.LostWork,
				Recovery: faultRep.Recovery.String(),
			}
			if snapChecked {
				ok := snapErr == nil
				fj.SnapshotVerified = &ok
			}
			if faultRep.Err != nil {
				fj.Error = faultRep.Err.Error()
			}
			result.Fault = fj
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(result); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
	} else {
		fmt.Printf("%s on %d nodes, %s\n", appLabel, *nodes, mode)
		fmt.Printf("  instructions:   %d (%.1fM)\n", st.Instructions, float64(st.Instructions)/1e6)
		fmt.Printf("  memory refs:    %d (%.1f%% loads)\n", st.MemRefs,
			100*float64(st.Loads)/float64(st.MemRefs))
		fmt.Printf("  exec time:      %.2f ms simulated (%.1fs wall)\n",
			float64(st.ExecTime)/1e6, wall.Seconds())
		fmt.Printf("  IPC:            %.2f per processor\n",
			float64(st.Instructions)/float64(st.ExecTime)/float64(*nodes))
		fmt.Printf("  L1 miss rate:   %.2f%%   L2 miss rate: %.2f%% (%.2f misses/1000 instr)\n",
			100*float64(st.L1Misses)/float64(st.L1Misses+st.L1Hits),
			100*st.L2MissRate(), st.L2MissesPer1000Instr())
		if !*baseline {
			fmt.Printf("  checkpoints:    %d (flush %.1f us, barriers %.1f us, interrupts %.1f us)\n",
				st.Checkpoints, float64(st.CkpFlushTime)/1000,
				float64(st.CkpBarrierTime)/1000, float64(st.CkpInterruptTime)/1000)
			fmt.Printf("  peak log:       %.1f KB\n", float64(st.LogBytesPeak)/1024)
		}
		if faultRep != nil {
			where := fmt.Sprintf(" node %d", faultRep.Lost)
			if faultRep.Lost < 0 {
				where = ""
			}
			fmt.Printf("  fault:          %s%s at %.1fus, detected at %.1fus\n",
				*faultKind, where,
				float64(faultRep.ErrorAt)/1000, float64(faultRep.DetectedAt)/1000)
			fmt.Printf("  recovery:       %s\n", faultRep.Recovery.String())
			fmt.Printf("  lost work:      %.1fus (rolled back to epoch %d)\n",
				float64(faultRep.LostWork)/1000, faultRep.Target)
			switch {
			case snapChecked && snapErr == nil:
				fmt.Printf("  restored image: verified byte-for-byte against the epoch %d snapshot\n", faultRep.Target)
			case snapChecked:
				fmt.Printf("  restored image: MISMATCH against the epoch %d snapshot\n", faultRep.Target)
			case faultRep.Err == nil:
				fmt.Println("  restored image: not compared (rollback scoped to a conelog cone)")
			}
			if faultRep.Err != nil {
				fmt.Printf("  recovery error: %v\n", faultRep.Err)
			}
		}
		fmt.Println("  memory accesses by class:")
		for c := stats.Class(0); c < stats.NumClasses; c++ {
			if st.MemAccesses[c] > 0 {
				fmt.Printf("    %-8s %12d\n", c, st.MemAccesses[c])
			}
		}
		fmt.Println("  network bytes by class:")
		for c := stats.Class(0); c < stats.NumClasses; c++ {
			if st.NetBytes[c] > 0 {
				fmt.Printf("    %-8s %12d\n", c, st.NetBytes[c])
			}
		}
		if *util {
			fmt.Println("  per-node utilization:")
			m.WriteUtilization(os.Stdout)
			fmt.Printf("  fabric faults:  drops=%d corrupts=%d dups=%d delays=%d failovers=%d undeliverable=%d\n",
				st.NetFaultDrops, st.NetFaultCorrupts, st.NetFaultDups, st.NetFaultDelays,
				st.NetRouteFailovers, st.NetRouteDrops)
			fmt.Printf("  transport:      retransmits=%d dedups=%d crc-caught=%d acks=%d unreachable=%d\n",
				st.XportRetransmits, st.XportDupsDropped, st.XportCorruptsCaught,
				st.XportAcks, st.XportUnreachable)
			if len(st.RecoveryHistory) > 0 {
				fmt.Printf("  recovery scope: rebuilt=%d skipped=%d frames over %d recovery(ies)\n",
					st.FramesReconstructed, st.FramesSkipped, len(st.RecoveryHistory))
			}
		}
		if *traceOut != "" {
			fmt.Printf("  trace:          %d event(s) to %s (%d dropped from the ring)\n",
				cfg.Trace.Total()-cfg.Trace.Dropped(), *traceOut, cfg.Trace.Dropped())
		}
		if *seriesOut != "" {
			fmt.Printf("  series:         %d epoch sample(s) to %s\n", cfg.Series.Len(), *seriesOut)
		}
	}

	if !parityOK {
		fmt.Fprintf(os.Stderr, "PARITY VIOLATION: %v\n", parityErr)
		exit(1)
	}
	if !*baseline && !*jsonOut {
		fmt.Println("  parity invariant: verified")
	}
	if snapErr != nil {
		fmt.Fprintf(os.Stderr, "RESTORED IMAGE MISMATCH: %v\n", snapErr)
		exit(1)
	}
	if faultRep != nil && faultRep.Err != nil {
		exit(1)
	}
}

// buildConfig assembles the machine configuration the flags select.
func buildConfig(o revive.Options, baseline, noCkpt bool, interval time.Duration) revive.Config {
	if baseline {
		return revive.BaselineConfig(o)
	}
	cfg := revive.EvalConfig(o)
	if noCkpt {
		cfg.Checkpoint.Interval = 0
	}
	if interval != 0 {
		cfg.Checkpoint.Interval = revive.Time(interval.Nanoseconds())
	}
	return cfg
}

// modeLabel names the configuration in reports.
func modeLabel(baseline, mirror bool) string {
	switch {
	case baseline:
		return "baseline (no recovery)"
	case mirror:
		return "ReVive mirroring"
	default:
		return "ReVive 7+1 parity"
	}
}

// runAppsSweep runs one machine instance per requested application, jobs
// at a time, and prints a per-app summary (one deterministic row per app;
// wall-clock totals go to stderr so stdout stays byte-identical at every
// -j). Returns the process exit code: 1 if any run violated parity.
func runAppsSweep(o revive.Options, names string, jobs int, baseline, mirror, noCkpt bool, interval time.Duration, jsonOut bool) int {
	apps := revive.Apps(o)
	if names != "all" {
		var picked []revive.App
		for _, name := range strings.Split(names, ",") {
			a, ok := revive.AppByName(strings.TrimSpace(name), o)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown application %q (try -list)\n", name)
				return 2
			}
			picked = append(picked, a)
		}
		apps = picked
	}
	type row struct {
		st        *stats.Stats
		parityErr error
	}
	mode := modeLabel(baseline, mirror)
	if o.Strategy != "" && o.Strategy != revive.DefaultStrategy {
		mode += " [" + o.Strategy + "]"
	}
	start := time.Now()
	rows := sweep.Run(jobs, len(apps), func(i int) row {
		m := revive.New(buildConfig(o, baseline, noCkpt, interval))
		m.Load(apps[i])
		r := row{st: m.Run()}
		if !baseline {
			r.parityErr = m.VerifyParity()
		}
		return r
	}, nil)
	wall := time.Since(start)

	violations := 0
	if jsonOut {
		type jsonRow struct {
			App            string       `json:"app"`
			Nodes          int          `json:"nodes"`
			Mode           string       `json:"mode"`
			ParityVerified *bool        `json:"parity_verified,omitempty"` // absent for -baseline
			Stats          *stats.Stats `json:"stats"`
		}
		out := make([]jsonRow, len(apps))
		for i, r := range rows {
			out[i] = jsonRow{App: apps[i].Label, Nodes: o.Nodes, Mode: mode, Stats: r.st}
			if !baseline {
				ok := r.parityErr == nil
				out[i].ParityVerified = &ok
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		fmt.Printf("sweep of %d application(s) on %d nodes, %s\n", len(apps), o.Nodes, mode)
		fmt.Printf("%-12s %9s %9s %6s %8s %8s %6s %10s  %s\n",
			"App", "Instr(M)", "Exec(ms)", "IPC", "L1miss%", "L2miss%", "Ckpts", "PeakLog", "Parity")
		for i, r := range rows {
			st := r.st
			parity := "-"
			if !baseline {
				parity = "ok"
				if r.parityErr != nil {
					parity = "VIOLATION"
				}
			}
			fmt.Printf("%-12s %9.1f %9.2f %6.2f %8.2f %8.2f %6d %8.1fK  %s\n",
				apps[i].Label, float64(st.Instructions)/1e6, float64(st.ExecTime)/1e6,
				float64(st.Instructions)/float64(st.ExecTime)/float64(o.Nodes),
				100*float64(st.L1Misses)/float64(st.L1Misses+st.L1Hits),
				100*st.L2MissRate(), st.Checkpoints, float64(st.LogBytesPeak)/1024, parity)
		}
	}
	for i, r := range rows {
		if r.parityErr != nil {
			fmt.Fprintf(os.Stderr, "PARITY VIOLATION in %s: %v\n", apps[i].Label, r.parityErr)
			violations++
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: %d simulation(s) in %.1fs wall\n", len(apps), wall.Seconds())
	if violations > 0 {
		return 1
	}
	return 0
}

// writeFileWith streams write's output into path.
func writeFileWith(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
