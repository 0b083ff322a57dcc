package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func rec(cpu string, wall float64, digest string) record {
	return record{
		Fingerprint: fingerprint{CPU: cpu, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "x"},
		Workload:    "fft16", Digest: digest,
		Metrics: map[string]metric{"wall_s": {wall, "s"}},
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	a := []record{rec("Xeon A", 5, "d")}
	b := []record{rec("Xeon B", 6, "d")}
	var out strings.Builder
	if err := compareRecords(&out, a, b, false); err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Fatalf("cross-host compare = %v; want a refusal", err)
	}
	if err := compareRecords(&out, a, b, true); err != nil {
		t.Fatalf("forced compare = %v", err)
	}
}

// Records of one host compare even when their code differs: that is the
// point of an A/B.
func TestCompareSameHostDifferentCode(t *testing.T) {
	a := []record{rec("Xeon", 4, "d"), rec("Xeon", 5, "d"), rec("Xeon", 6, "d")}
	b := []record{rec("Xeon", 5, "d"), rec("Xeon", 5.5, "e")}
	b[0].Fingerprint.Commit = "y"
	var out strings.Builder
	if err := compareRecords(&out, a, b, false); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "5 [4, 6] (3)") || !strings.Contains(s, "+5.0%") {
		t.Errorf("compare output lacks medians, quartiles or change:\n%s", s)
	}
	if !strings.Contains(s, "simulated output differs") {
		t.Errorf("compare did not flag the moved digest:\n%s", s)
	}
}

// BENCHMARK.json and the program agree on every workload and metric name
// and unit, so the one command prints exactly what the file declares.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads(1) {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(specNames, ",") {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", names, specNames)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
}
