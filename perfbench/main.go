// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator, the chaos harness or revive-serve for a
// fixed time, checks every output, and prints each metric with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics of
// a CPU-profiled run (--trace 1). Every run also writes a record with the
// host fingerprint and raw samples under --out; `perfbench compare` sets
// two groups of records side by side.
//
// Usage (from the repository root; run.sh builds and calls this):
//
//	bash perfbench/run.sh --workload fft16 --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh compare -a 'old/*.json' -b 'new/*.json'
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},         // host wall time of one repetition's measured operation
	{"cpu_s", "s"},          // process CPU time over the same interval
	{"setup_s", "s"},        // one set-up: New+Load, schedule generation, or serve.New
	{"peak_heap_mb", "MiB"}, // peak live Go heap over the repetitions
	{"req_p50_ms", "ms"},    // median latency of one user request
}

// layers are the module names self time is attributed to: the packages
// under internal/ that make up the machine and its services (arch is the
// address map), the Go collector, and everything else.
var layers = []string{"sim", "proc", "cache", "coherence", "mem", "network",
	"core", "machine", "workload", "chaos", "serve", "arch", "gc", "other"}

// perLayer are the metrics of the traced run. Counters a workload's public
// API does not expose read 0 on that workload; every time is measured on
// every workload (see machineProbe and serveProbe).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"}, {"sim.events_per_s", "1/s"}, {"sim.step_ns", "ns"},
		{"sim.parallel_rounds", "count"},
		{"proc.instructions", "count"}, {"proc.minstr_per_s", "Minstr/s"},
		{"cache.l1_hits", "count"}, {"cache.l1_misses", "count"},
		{"cache.l2_hits", "count"}, {"cache.l2_misses", "count"}, {"cache.lookup_ns", "ns"},
		{"coherence.dir_entries", "count"},
		{"network.msgs", "count"}, {"network.bytes", "bytes"}, {"network.send_ns", "ns"},
		{"network.xport_retransmits", "count"},
		{"mem.accesses", "count"}, {"mem.log_accesses", "count"}, {"mem.parity_accesses", "count"},
		{"mem.lines_stored", "count"}, {"mem.peek_ns", "ns"}, {"mem.poke_ns", "ns"},
		{"core.checkpoints", "count"}, {"core.log_bytes_peak", "bytes"}, {"core.recoveries", "count"},
		{"machine.verify_s", "s"}, {"machine.recover_s", "s"}, {"machine.sim_exec_ns", "sim_ns"},
		{"workload.next_ns", "ns"},
		{"chaos.checks", "count"},
		{"serve.journal_append_us", "us"}, {"serve.restart_ms", "ms"}, {"serve.cache_get_us", "us"},
		{"serve.deduped", "count"}, {"serve.cache_hits", "count"},
		{"serve.cold_p50_ms", "ms"}, {"serve.cold_p75_ms", "ms"},
		{"serve.cached_p50_ms", "ms"}, {"serve.cached_p99_ms", "ms"},
		{"gc.alloc_mb", "MiB"},
		{"trace.wall_s", "s"}, {"trace.overhead_pct", "%"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_pct", "%"})
	}
	return defs
}()

// scratchDir holds the serve state directories of a run; set in main.
var scratchDir string

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (see -list)")
		seed    = fs.Uint64("seed", 1, "input seed: the serve-mix request sequence")
		chaos   = fs.Uint64("chaos-seed", 1, "master seed of chaos10's campaigns (1 is the batch CI runs)")
		seconds = fs.Int("seconds", 12, "measuring time; at least 3 repetitions run regardless")
		traced  = fs.Int("trace", 0, "1 runs the CPU-profiled per-layer run instead of the end-to-end one")
		out     = fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for run records and scratch state")
		list    = fs.Bool("list", false, "list the workloads and exit")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *list {
		for _, w := range workloads(*chaos) {
			fmt.Printf("%-14s %s\n", w.name, w.why)
		}
		return
	}
	w, ok := lookupWorkload(*name, *chaos)
	if !ok || (*traced != 0 && *traced != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of -list), -seconds >= 1 and -trace 0|1\n")
		os.Exit(2)
	}
	scratchDir = filepath.Join(*out, "tmp")
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec.Seconds = *seconds
	report(os.Stdout, rec)
	if err := writeRecord(*out, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Failed == 0 && rec.Attempted > 0, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run measures workload w for the given time and returns its record.
func run(w *workload, seed uint64, seconds time.Duration, traced bool) (*record, error) {
	r := newRunner(seed)
	for t0 := time.Now(); len(r.setupS) < maxSetups &&
		(len(r.setupS) < minSetups || time.Since(t0) < setupBudget); {
		w.setupOnly(r)
	}
	runtime.GC() // the peak heap is the repetitions', not the extra set-ups'
	heap := startHeapSampler()
	start := time.Now()
	var layerNS map[string]int64 // CPU time per layer over the profiled repetitions
	if !traced {
		for {
			d := r.doRep(w)
			if r.rep >= minReps && time.Since(start)+d > seconds {
				break
			}
		}
	} else {
		// Profiled and unprofiled repetitions alternate, at least one of
		// each, so the tracing overhead compares like with like.
		layerNS = map[string]int64{}
		for i := 0; ; i++ {
			if i%2 == 0 {
				r.layerNS = layerNS
			}
			d := r.doRep(w)
			r.layerNS = nil
			if r.profErr != nil {
				return nil, r.profErr
			}
			if i%2 == 1 && time.Since(start)+2*d > seconds {
				break
			}
		}
		runMicro(r, w.micro)
		r.check("serve microdrivers", runServeMicro(r, scratchDir))
		if !w.sim {
			machineProbe(r, w.micro)
		}
		if !w.requests {
			r.check("serve probe", serveProbe(r, scratchDir))
		}
	}
	peak := heap.finish()

	rec := &record{
		Fingerprint: hostFingerprint("."),
		Workload:    w.name, Seed: seed, Trace: traced,
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		Digest: r.digest, Spans: r.spans.summary(), Stats: r.statsJSON,
		Samples: map[string][]float64{
			"wall_s": r.wallS, "cpu_s": r.cpuS, "setup_s": r.setupS, "req_ms": r.reqMS,
			"cold_ms": r.coldMS, "cached_ms": r.cachedMS,
		},
		Metrics: map[string]metric{},
	}
	if !traced {
		vals := map[string]float64{
			"wall_s": median(r.wallS), "cpu_s": median(r.cpuS), "setup_s": median(r.setupS),
			"peak_heap_mb": peak, "req_p50_ms": median(r.reqMS),
		}
		for _, d := range endToEnd {
			rec.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		return rec, nil
	}

	// The traced run: even repetitions were profiled, odd ones not.
	var profiled, plain []float64
	for i, x := range r.wallS {
		if i%2 == 0 {
			profiled = append(profiled, x)
		} else {
			plain = append(plain, x)
		}
	}
	untraced := median(plain)
	tracedWall := median(profiled)
	c := r.counts
	c["trace.wall_s"] = tracedWall
	c["trace.overhead_pct"] = 100 * (tracedWall - untraced) / untraced
	c["sim.events_per_s"] = c["sim.events"] / untraced
	c["proc.minstr_per_s"] = c["proc.instructions"] / untraced / 1e6
	serveLatencies(r)
	var total int64
	for _, v := range layerNS {
		total += v
	}
	rec.Layers = map[string]float64{}
	for l, v := range layerNS {
		rec.Layers[l] = 100 * float64(v) / float64(max(total, 1))
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for l, pct := range rec.Layers {
		if known[l] {
			c[l+".self_pct"] += pct
		} else {
			c["other.self_pct"] += pct // internal packages outside the layer list
		}
	}
	for _, d := range perLayer {
		v := c[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rec.Metrics[d.name] = metric{v, d.unit}
	}
	rec.ChromeTrace = r.spans.chrome()
	return rec, nil
}

// report prints the run for a reader: every metric with its unit, the
// failure count, the output digest, and where the time went.
func report(w io.Writer, rec *record) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  host %s (%d CPUs, GOMAXPROCS %d, %s)  code %s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Fingerprint.CPU, rec.Fingerprint.NProc,
		rec.Fingerprint.GOMAXPROCS, rec.Fingerprint.GoVersion, rec.Fingerprint.Commit)
	fmt.Fprintf(w, "repetitions %d  set-ups %d  requests %d\n",
		len(rec.Samples["wall_s"]), len(rec.Samples["setup_s"]), len(rec.Samples["req_ms"]))
	fmt.Fprintf(w, "checks attempted %d  failed %d  failed_frac %g\n",
		rec.Attempted, rec.Failed, failedFrac(rec.Attempted, rec.Failed))
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	fmt.Fprintf(w, "output digest %s\n", rec.Digest)
	for _, k := range []string{"cold_ms", "cached_ms", "req_ms"} {
		if xs := rec.Samples[k]; len(xs) > 0 {
			if p, v, ok := tail(xs); ok {
				fmt.Fprintf(w, "%s: median %.4g ms, p%g %.4g ms (%d samples)\n", k, median(xs), 100*p, v, len(xs))
			}
		}
	}
	names := sortedKeys(rec.Metrics)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if len(rec.Layers) > 0 {
		fmt.Fprintf(w, "self time by package (CPU profile):")
		ls := sortedKeys(rec.Layers)
		sort.SliceStable(ls, func(i, j int) bool { return rec.Layers[ls[i]] > rec.Layers[ls[j]] })
		for _, l := range ls {
			fmt.Fprintf(w, " %s %.1f%%", l, rec.Layers[l])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "spans (count, total s, self s):")
	for i, s := range rec.Spans {
		if i == 12 {
			break
		}
		fmt.Fprintf(w, "  %-16s %7d %10.4f %10.4f\n", s.Name, s.Count, s.Total, s.Self)
	}
}

// writeRecord stores rec as <out>/results/<workload>-seed<n>-trace<k>-<time>.json.
func writeRecord(out string, rec *record) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	trace := 0
	if rec.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Workload, rec.Seed, trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// compareMain implements `perfbench compare -a GLOB -b GLOB [-force]`.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	a := fs.String("a", "", "glob of the baseline side's record files")
	b := fs.String("b", "", "glob of the changed side's record files")
	force := fs.Bool("force", false, "compare records from different hosts anyway")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	load := func(glob string) ([]record, error) {
		paths, err := filepath.Glob(glob)
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, errors.New("no records match " + glob)
		}
		return readRecords(paths)
	}
	ra, err := load(*a)
	if err == nil {
		var rb []record
		if rb, err = load(*b); err == nil {
			err = compareRecords(os.Stdout, ra, rb, *force)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", strings.TrimPrefix(err.Error(), "perfbench: "))
		return 1
	}
	return 0
}
