// Revive-chaos runs randomized fault campaigns against the ReVive machine
// model: each campaign generates a fault schedule from a seed (node losses,
// transients, multi-loss, double faults; injected at random times, protocol
// steps, mid-commit or mid-recovery — plus fabric faults: probabilistic
// message drop/corruption/duplication/delay and permanent link or router
// kills), executes it, recovers, and checks the invariant registry at every
// quiescent point. Failing schedules are shrunk to a minimal reproducer and
// written as a replayable JSON artifact.
//
//	revive-chaos -campaigns 200 -seed 42          # the standing campaign
//	revive-chaos -campaigns 200 -seed 42 -j 8     # eight campaigns at a time
//	revive-chaos -campaigns 200 -drop 0.01 -corrupt 0.001 -link-loss
//	revive-chaos -campaigns 200 -cpu-loss -mem-partial    # split-domain sweep
//	revive-chaos -campaigns 50 -strategy conelog  # full registry under another backend
//	revive-chaos -campaigns 10 -bug data-before-log -out fail.json
//	revive-chaos -campaigns 10 -bug drop-ack      # transport-audit self-test
//	revive-chaos -campaigns 10 -bug data-before-log -json  # machine-readable
//	revive-chaos -replay fail.json                # re-execute a reproducer
//	revive-chaos -campaigns 10 -j 1 -cpuprofile cpu.out  # profile a batch
//
// Every failing campaign also carries a flight recording: the last -flight
// events of the shrunk reproducer's re-execution. With -out, each recording
// is additionally written as a Chrome trace-event file next to the artifact
// (open in Perfetto).
//
// Campaigns (including shrinking) run -j at a time (default: all CPUs);
// seeds are pre-drawn serially and results absorbed in campaign order, so
// the summary, artifacts and -v log are byte-identical at every -j.
//
// Exit status is 0 when every campaign holds all invariants, 1 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"revive"
	"revive/internal/chaos"
	"revive/internal/perf"
	"revive/internal/stats"
	"revive/internal/trace"
)

func main() {
	campaigns := flag.Int("campaigns", 50, "number of fault campaigns to run")
	seed := flag.Uint64("seed", 1, "master seed (campaign schedules derive from it)")
	bug := flag.String("bug", "", "run a deliberately broken build (\"data-before-log\" or \"drop-ack\") to validate the harness")
	strategy := flag.String("strategy", "", "recovery-strategy backend the campaigns run under: "+strings.Join(revive.StrategyNames(), ", ")+" (default "+revive.DefaultStrategy+")")
	budget := flag.Int("shrink-budget", 48, "re-executions allowed when minimizing a failing schedule")
	drop := flag.Float64("drop", 0, "force a message-drop fault of this probability into every campaign")
	corrupt := flag.Float64("corrupt", 0, "force a message-corruption fault of this probability into every campaign")
	linkLoss := flag.Bool("link-loss", false, "force one random link or router kill into every campaign")
	cpuLoss := flag.Bool("cpu-loss", false, "convert every campaign's primary fault to a cpu-loss (processor dies, memory survives)")
	memPartial := flag.Bool("mem-partial", false, "convert every campaign's primary fault to a partial memory loss (with -cpu-loss: seeded coin per campaign)")
	out := flag.String("out", "", "write failing campaigns' artifacts to this JSON file")
	replay := flag.String("replay", "", "re-execute the schedule or artifact in this JSON file and exit")
	flight := flag.Int("flight", trace.DefaultCapacity, "flight-recorder ring size for failing campaigns (0 disables)")
	jsonOut := flag.Bool("json", false, "print the batch summary as machine-readable JSON instead of text")
	verbose := flag.Bool("v", false, "log every campaign")
	jobs := flag.Int("j", 0, "campaigns to run in parallel (0 = all CPUs, 1 = serial)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	stopProfiles, err := perf.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// os.Exit skips deferred calls; every exit goes through this so the
	// profiles are complete whatever the outcome.
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	if *replay != "" {
		exit(replayFile(*replay, *flight, *jsonOut))
	}
	if *bug != "" && *bug != chaos.BugDataBeforeLog && *bug != chaos.BugDropAck {
		fmt.Fprintf(os.Stderr, "unknown -bug %q (known: %q, %q)\n", *bug, chaos.BugDataBeforeLog, chaos.BugDropAck)
		exit(2)
	}
	if *drop < 0 || *drop > 1 || *corrupt < 0 || *corrupt > 1 {
		fmt.Fprintln(os.Stderr, "-drop and -corrupt are probabilities in [0, 1]")
		exit(2)
	}
	if err := revive.ValidateStrategy(*strategy); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}

	opts := chaos.Options{
		Campaigns: *campaigns, Seed: *seed, Bug: *bug, Strategy: *strategy, ShrinkBudget: *budget,
		DropProb: *drop, CorruptProb: *corrupt, LinkLoss: *linkLoss,
		CPULoss: *cpuLoss, MemPartial: *memPartial,
		FlightEvents: *flight, Parallelism: *jobs,
	}
	if *flight <= 0 {
		opts.FlightEvents = -1
	}
	if *verbose && !*jsonOut {
		opts.Log = func(f string, a ...any) { fmt.Printf(f+"\n", a...) }
	}
	sum := chaos.Run(opts)

	if *jsonOut {
		result := struct {
			Counters stats.Campaign  `json:"counters"`
			Failures []chaos.Failure `json:"failures,omitempty"`
		}{Counters: sum.Counters, Failures: sum.Failures}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(result); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
	} else {
		fmt.Println(sum.Counters.String())
	}

	if len(sum.Failures) == 0 {
		if !*jsonOut {
			fmt.Println("all campaigns held every invariant")
		}
		exit(0)
	}
	if !*jsonOut {
		for _, f := range sum.Failures {
			fmt.Printf("FAIL seed %#016x: %v\n", f.CampaignSeed, f.Outcome.Violations[0])
			fmt.Printf("  minimal reproducer: %d fault(s), %d instr (shrunk in %d runs)\n",
				len(f.Artifact.Shrunk.Faults), f.Artifact.Shrunk.Instr, f.Artifact.ShrinkRuns)
		}
	}
	if *out != "" {
		blob, err := json.MarshalIndent(sum.Failures, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, blob, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "writing artifacts:", err)
		} else if !*jsonOut {
			fmt.Printf("wrote %d artifact(s) to %s (re-run with -replay)\n", len(sum.Failures), *out)
		}
		writeFlightDumps(*out, sum.Failures, *jsonOut)
	}
	exit(1)
}

// writeFlightDumps renders each failure's flight recording as a Chrome
// trace-event file next to the artifact file: fail.json becomes
// fail.flight0.json, fail.flight1.json, ...
func writeFlightDumps(out string, failures []chaos.Failure, quiet bool) {
	base := strings.TrimSuffix(out, ".json")
	for i, f := range failures {
		if len(f.FlightRecorder) == 0 {
			continue
		}
		path := fmt.Sprintf("%s.flight%d.json", base, i)
		if err := writeChromeFile(path, f.FlightRecorder); err != nil {
			fmt.Fprintln(os.Stderr, "writing flight recording:", err)
			continue
		}
		if !quiet {
			fmt.Printf("  flight recording: %d event(s) to %s (open in Perfetto)\n",
				len(f.FlightRecorder), path)
		}
	}
}

// writeChromeFile writes events to path in Chrome trace-event format.
func writeChromeFile(path string, events []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeEvents(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayFile re-executes a minimal reproducer. The file may hold a single
// artifact, a bare schedule, or the artifact list -out writes (the first
// entry replays). The replay runs with the flight recorder on; if it
// reproduces a violation, the recording lands in <path>.flight.json.
func replayFile(path string, flight int, jsonOut bool) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var failures []chaos.Failure
	if json.Unmarshal(data, &failures) == nil && len(failures) > 0 && failures[0].Artifact.Shrunk.Nodes != 0 {
		data, _ = json.Marshal(failures[0].Artifact)
	}
	s, err := chaos.LoadArtifact(data, path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if !jsonOut {
		fmt.Printf("replaying: %d node(s), group size %d, %d instr, bug=%q, %d fault(s)\n",
			s.Nodes, s.GroupSize, s.Instr, s.Bug, len(s.Faults))
	}
	var out *chaos.Outcome
	var events []trace.Event
	if flight > 0 {
		out, events = chaos.RunScheduleTraced(s, flight)
	} else {
		out = chaos.RunSchedule(s)
	}
	blob, _ := json.MarshalIndent(out, "", "  ")
	fmt.Println(string(blob))
	if out.Failed() {
		if len(events) > 0 {
			fp := strings.TrimSuffix(path, ".json") + ".flight.json"
			if err := writeChromeFile(fp, events); err != nil {
				fmt.Fprintln(os.Stderr, "writing flight recording:", err)
			} else if !jsonOut {
				fmt.Printf("flight recording: %d event(s) to %s (open in Perfetto)\n", len(events), fp)
			}
		}
		if !jsonOut {
			fmt.Printf("reproduced %d violation(s)\n", len(out.Violations))
		}
		return 1
	}
	if !jsonOut {
		fmt.Println("schedule ran clean")
	}
	return 0
}
