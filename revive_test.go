package revive

import (
	"bytes"
	"strings"
	"testing"
)

func TestAppsListMatchesTable4(t *testing.T) {
	apps := Apps(Options{})
	if len(apps) != 12 {
		t.Fatalf("apps = %d, want 12", len(apps))
	}
	if _, ok := AppByName("Radix", Options{}); !ok {
		t.Fatal("Radix missing")
	}
	if _, ok := AppByName("nope", Options{}); ok {
		t.Fatal("found nonexistent app")
	}
}

func TestEvalConfigIsValidMachine(t *testing.T) {
	m := New(EvalConfig(Options{}))
	if m.Cfg.Nodes != 16 || m.Cfg.GroupSize != 8 || !m.Cfg.Revive {
		t.Fatalf("unexpected eval config: %+v", m.Cfg)
	}
	b := New(BaselineConfig(Options{}))
	if b.Cfg.Revive {
		t.Fatal("baseline has recovery support")
	}
}

func TestQuickRunEndToEnd(t *testing.T) {
	o := Options{Quick: true}
	app, _ := AppByName("Water-Sp", o)
	m := New(EvalConfig(o))
	m.Load(app)
	st := m.Run()
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoints in a quick run")
	}
	if err := m.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

// TestPackedMemoryFootprint pins the functional storage's size on the
// sparsest application: the line capacity the packed frames reserve stays
// within twice the stored lines (dense 4 KB pages would reserve ~10x).
func TestPackedMemoryFootprint(t *testing.T) {
	o := Options{Quick: true}
	app, _ := AppByName("Radix", o)
	m := New(EvalConfig(o))
	m.Load(app)
	m.Run()
	stored, reserved := 0, 0
	for _, mm := range m.Mems {
		stored += mm.LinesStored()
		reserved += mm.PackedBytes()
	}
	if stored == 0 {
		t.Fatal("Radix stored no lines")
	}
	if limit := 2 * stored * 64; reserved > limit {
		t.Fatalf("packed capacity %d bytes for %d stored lines, want <= %d", reserved, stored, limit)
	}
	t.Logf("%d lines stored in %d reserved bytes (%.2fx)", stored, reserved, float64(reserved)/float64(stored*64))
}

func TestErrorFreeMatrixShape(t *testing.T) {
	if testing.Short() {
		t.Skip("five 16-node runs")
	}
	o := Options{Quick: true}
	app, _ := AppByName("FFT", o)
	results := RunErrorFree(o, []App{app}, nil)
	r := results[0]
	for _, v := range Variants {
		if r.Runs[v] == nil {
			t.Fatalf("variant %s missing", v)
		}
	}
	// ReVive with checkpoints must cost more than without; parity more
	// than mirroring (section 6.1).
	if r.Overhead(VCp) <= r.Overhead(VCpInf) {
		t.Fatalf("Cp (%.3f) not above CpInf (%.3f)", r.Overhead(VCp), r.Overhead(VCpInf))
	}
	if r.Overhead(VCp) <= r.Overhead(VCpM) {
		t.Fatalf("parity (%.3f) not above mirroring (%.3f)", r.Overhead(VCp), r.Overhead(VCpM))
	}
	if r.Runs[VCp].LogBytesPeak == 0 {
		t.Fatal("no log recorded")
	}

	var buf bytes.Buffer
	WriteFigure8(&buf, results)
	WriteFigure9(&buf, results)
	WriteFigure10(&buf, results)
	WriteFigure11(&buf, results)
	WriteTable4(&buf, results)
	out := buf.String()
	for _, want := range []string{"Figure 8", "Figure 9", "Figure 10", "Figure 11",
		"Table 4", "FFT", "RD/RDX", "PAR"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestRecoveryStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery runs")
	}
	o := Options{Quick: true}
	app, _ := AppByName("Water-Sp", o)
	res := RunRecoveryStudy(o, []App{app}, nil)
	r := res[0]
	if r.NodeLoss.Phase2 == 0 {
		t.Fatal("node loss recovery had no Phase 2")
	}
	if r.Transient.Phase2 != 0 {
		t.Fatal("transient recovery should skip Phase 2")
	}
	if r.NodeLoss.EntriesRestored == 0 {
		t.Fatal("nothing rolled back")
	}
	var buf bytes.Buffer
	WriteFigure12(&buf, res)
	WriteFigure7(&buf, r.NodeLoss, CheckpointInterval, CheckpointInterval*8/10)
	if !strings.Contains(buf.String(), "Figure 12") {
		t.Fatal("figure 12 report malformed")
	}
}

func TestAvailabilityStudyMatchesPaperHeadline(t *testing.T) {
	rows := AvailabilityStudy()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper: better than 99.999% at one error per day (worst case).
	if rows[0].WorstCase < 0.99999 {
		t.Fatalf("one error/day worst case = %v < 99.999%%", rows[0].WorstCase)
	}
	if rows[0].NoMemoryLoss < rows[0].WorstCase {
		t.Fatal("no-memory-loss availability below worst case")
	}
}

func TestStorageStudyMatchesPaperAccounting(t *testing.T) {
	// With a synthetic peak log, the overhead decomposes per section 6.2.
	results := []AppResult{{
		App:  App{},
		Runs: map[Variant]*Stats{VCp: {LogBytesPeak: 200 * 1024}},
	}}
	s := StorageStudy(results, 8)
	if s.ParityFraction != 0.125 {
		t.Fatalf("7+1 parity fraction = %v, want 0.125", s.ParityFraction)
	}
	if s.LogProjectedBytes != 200*1024*uint64(100*Millisecond/CheckpointInterval) {
		t.Fatalf("projection = %d", s.LogProjectedBytes)
	}
	if s.TotalOverhead() <= s.ParityFraction {
		t.Fatal("total overhead must exceed the parity fraction")
	}
	var buf bytes.Buffer
	WriteStorage(&buf, s)
	if !strings.Contains(buf.String(), "14%") {
		t.Fatal("storage report missing the paper reference")
	}
}

func TestVariantConfigs(t *testing.T) {
	for _, v := range Variants {
		cfg := variantConfig(v, Options{})
		switch v {
		case VBase:
			if cfg.Revive {
				t.Error("base has revive")
			}
		case VCpInf, VCpInfM:
			if cfg.Checkpoint.Interval != 0 {
				t.Errorf("%s has periodic checkpoints", v)
			}
		case VCpM:
			if cfg.GroupSize != 2 {
				t.Errorf("%s not mirroring", v)
			}
		}
	}
}
