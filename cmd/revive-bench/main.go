// Command revive-bench regenerates the tables and figures of the ReVive
// paper's evaluation (section 6). Each experiment prints the measured
// series next to the paper's reference numbers; EXPERIMENTS.md records a
// full run.
//
// Usage:
//
//	revive-bench -all                # everything (several minutes)
//	revive-bench -fig 8              # one figure (6..12)
//	revive-bench -table 2            # one table (2 or 4)
//	revive-bench -storage            # section 6.2 accounting
//	revive-bench -availability       # section 3.3.2 table
//	revive-bench -split-domain       # E19 split-fault-domain comparison
//	revive-bench -strategy-matrix    # E23 recovery-strategy ablation
//	revive-bench -quick -all         # reduced budgets, fast smoke run
//	revive-bench -apps FFT,Radix     # restrict the application set
//	revive-bench -all -j 8           # eight simulations at a time
//	revive-bench -all -cpuprofile cpu.pb.gz   # profile a full run
//
// The experiment sweeps are embarrassingly parallel (one machine instance
// per app x variant cell); -j sets how many run at once (default: all
// CPUs). Reports and progress lines are byte-identical at every -j —
// see internal/sweep for the determinism contract.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"revive"
	"revive/internal/perf"
)

func main() {
	var (
		all          = flag.Bool("all", false, "run every experiment")
		fig          = flag.Int("fig", 0, "regenerate one figure (6, 7, 8, 9, 10, 11, 12)")
		table        = flag.Int("table", 0, "regenerate one table (2 or 4)")
		storage      = flag.Bool("storage", false, "section 6.2 storage accounting")
		availability = flag.Bool("availability", false, "section 3.3.2 availability")
		splitDomain  = flag.Bool("split-domain", false, "E19 split-fault-domain study (node-loss vs cpu-loss vs mem-partial)")
		stratMatrix  = flag.Bool("strategy-matrix", false, "E23 recovery-strategy ablation across every registered backend")
		strategy     = flag.String("strategy", "", "recovery-strategy backend for the other experiments: "+strings.Join(revive.StrategyNames(), ", ")+" (default "+revive.DefaultStrategy+")")
		quick        = flag.Bool("quick", false, "reduced instruction budgets")
		scale        = flag.Int("scale", 100, "divide paper instruction counts by this")
		appsFlag     = flag.String("apps", "", "comma-separated application subset")
		missRates    = flag.Bool("missrates", false, "baseline-only miss-rate calibration (Table 4)")
		jobs         = flag.Int("j", 0, "simulations to run in parallel (0 = all CPUs, 1 = serial)")

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

	o := revive.Options{Scale: *scale, Quick: *quick, Parallelism: *jobs}
	if err := revive.ValidateStrategy(*strategy); err != nil {
		fmt.Fprintln(os.Stderr, err)
		stopProfiles()
		os.Exit(2)
	}
	o.Strategy = *strategy
	apps := revive.Apps(o)
	if *appsFlag != "" {
		var picked []revive.App
		for _, name := range strings.Split(*appsFlag, ",") {
			a, ok := revive.AppByName(strings.TrimSpace(name), o)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown application %q\n", name)
				stopProfiles()
				os.Exit(2)
			}
			picked = append(picked, a)
		}
		apps = picked
	}

	w := os.Stdout
	if *missRates {
		revive.WriteTable4(w, revive.RunMissRates(o, apps))
		return
	}
	needMatrix := *all || *fig >= 8 && *fig <= 11 || *table == 4 || *storage
	needRecovery := *all || *fig == 7 || *fig == 12

	var matrix []revive.AppResult
	if needMatrix {
		start := time.Now()
		matrix = revive.RunErrorFree(o, apps, func(app string, v revive.Variant, st *revive.Stats) {
			fmt.Fprintf(os.Stderr, "  %-10s %-8s exec=%8.1fus ckps=%d\n",
				app, v, float64(st.ExecTime)/1000, st.Checkpoints)
		})
		fmt.Fprintf(os.Stderr, "error-free matrix: %v\n", time.Since(start))
	}
	var recov []revive.RecoveryResult
	if needRecovery {
		start := time.Now()
		recov = revive.RunRecoveryStudy(o, apps, func(app string) {
			fmt.Fprintf(os.Stderr, "  recovery: %s\n", app)
		})
		fmt.Fprintf(os.Stderr, "recovery study: %v\n", time.Since(start))
	}

	sep := func() { revive.Separator(w) }
	if *all || *fig == 6 {
		rows := revive.RunFigure6(o)
		cfg := revive.EvalConfig(o)
		revive.WriteFigure6(w, rows, cfg.Checkpoint.InterruptCost, cfg.Checkpoint.BarrierCost)
		sep()
	}
	if *all || *fig == 7 {
		worst := recov[0].NodeLoss
		for _, r := range recov {
			if r.NodeLoss.Unavailable() > worst.Unavailable() {
				worst = r.NodeLoss
			}
		}
		cfg := revive.EvalConfig(o)
		revive.WriteFigure7(w, worst, cfg.Checkpoint.Interval, cfg.Checkpoint.Interval*8/10)
		sep()
	}
	if *all || *fig == 8 {
		revive.WriteFigure8(w, matrix)
		sep()
	}
	if *all || *fig == 9 {
		revive.WriteFigure9(w, matrix)
		sep()
	}
	if *all || *fig == 10 {
		revive.WriteFigure10(w, matrix)
		sep()
	}
	if *all || *fig == 11 {
		revive.WriteFigure11(w, matrix)
		sep()
	}
	if *all || *fig == 12 {
		revive.WriteFigure12(w, recov)
		sep()
	}
	if *all || *table == 2 {
		revive.WriteTable2(w, revive.RunTable2(o))
		sep()
	}
	if *all || *table == 4 {
		revive.WriteTable4(w, matrix)
		sep()
	}
	if *all || *storage {
		revive.WriteStorage(w, revive.StorageStudy(matrix, 8))
		sep()
	}
	if *all || *availability {
		revive.WriteAvailability(w, revive.AvailabilityStudy())
		sep()
	}
	if *splitDomain {
		// Not part of -all: EXPERIMENTS.md E19 records a full run, and the
		// -quick -all golden stays byte-identical.
		start := time.Now()
		app := apps[0]
		res := revive.RunSplitDomainStudy(o, app, []int{8, 2}, func(gs int) {
			fmt.Fprintf(os.Stderr, "  split-domain: %s group size %d\n", app.Label, gs)
		})
		fmt.Fprintf(os.Stderr, "split-domain study: %v\n", time.Since(start))
		revive.WriteE19(w, res, revive.EvalConfig(o).Checkpoint.Interval)
		sep()
	}
	if *stratMatrix {
		// Not part of -all for the same reason as -split-domain: the
		// -quick -all golden stays byte-identical, and EXPERIMENTS.md E23
		// records a full run. The matrix runs every registered backend, so
		// -strategy (which selects one backend for the other experiments)
		// does not apply here.
		start := time.Now()
		res := revive.RunStrategyMatrix(o, apps, func(app, strat string, st *revive.Stats) {
			fmt.Fprintf(os.Stderr, "  %-10s %-11s exec=%8.1fus ckps=%d\n",
				app, strat, float64(st.ExecTime)/1000, st.Checkpoints)
		})
		fmt.Fprintf(os.Stderr, "strategy matrix: %v\n", time.Since(start))
		revive.WriteStrategyMatrix(w, res)
		sep()
	}
	if !*all && *fig == 0 && *table == 0 && !*storage && !*availability && !*splitDomain && !*stratMatrix {
		flag.Usage()
		stopProfiles()
		os.Exit(2)
	}
}
