package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"revive"
	"revive/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestDefaultStatsJSONGolden pins the -json stats payload of a default
// (no-fault) run byte-for-byte: the split-fault-domain scope counters are
// omitempty and the fault block is absent, so growing the fault model must
// not change what a healthy run emits. The golden deliberately excludes the
// wall-clock wrapper fields (wall_seconds is nondeterministic); everything
// in Stats is simulation-deterministic.
//
// The second input is the benchmark's 64-node Quick FFT machine: it pins
// the wide-machine sharer sets (past one 32-bit word) against an absolute
// reference, and its Shards field is the deprecated, ignored one, so the
// golden also pins that setting it changes nothing.
func TestDefaultStatsJSONGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		o      revive.Options
	}{
		{"stats_quick_fft.json", revive.Options{Quick: true}},
		{"stats_quick_fft64.json", revive.Options{Nodes: 64, Quick: true, Shards: 2}},
	} {
		t.Run(tc.golden, func(t *testing.T) { checkStatsGolden(t, tc.golden, tc.o) })
	}
}

func checkStatsGolden(t *testing.T, name string, o revive.Options) {
	app, ok := revive.AppByName("FFT", o)
	if !ok {
		t.Fatal("FFT missing from the application table")
	}
	m := revive.New(revive.EvalConfig(o))
	m.Load(app)
	st := m.Run()

	blob, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')

	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./cmd/revive-sim -run Golden -update)", err)
	}
	if !bytes.Equal(blob, want) {
		t.Errorf("default no-fault stats JSON drifted from %s\n"+
			"(intentional? regenerate with go test ./cmd/revive-sim -run Golden -update)", golden)
	}
	for _, field := range []string{"FramesReconstructed", "FramesSkipped", "frames_rebuilt", "frames_skipped"} {
		if bytes.Contains(blob, []byte(field)) {
			t.Errorf("no-fault stats JSON leaks split-domain scope field %q", field)
		}
	}
	// The stats schema version must appear exactly once per run result
	// (the cache key of revive-serve discriminates code versions on it),
	// stamped with the current build's SchemaVersion.
	if n := bytes.Count(blob, []byte(`"schema_version"`)); n != 1 {
		t.Errorf("schema_version appears %d times in the stats envelope, want exactly 1", n)
	}
	if !bytes.Contains(blob, []byte(fmt.Sprintf(`"schema_version": %d`, stats.SchemaVersion))) {
		t.Errorf("stats envelope does not carry the build's SchemaVersion %d", stats.SchemaVersion)
	}
}
