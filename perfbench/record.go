package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies the host and the code a record was measured on.
// Records from different hosts are not comparable.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// Commit is the git commit when the checkout is a repository, else
	// "src:" and a digest of the module's Go sources and go.mod.
	Commit string `json:"commit"`
}

// hostKey is the part of the fingerprint that must match for a comparison.
func (f fingerprint) hostKey() string {
	return fmt.Sprintf("%s|%d|%d|%s", f.CPU, f.NProc, f.GOMAXPROCS, f.GoVersion)
}

func hostFingerprint(root string) fingerprint {
	return fingerprint{
		CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commitOf(root),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf names the code under root: its git HEAD when root is a git
// work tree, else a digest of every .go file and go.mod below it, build
// and result directories excluded.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(p))
		io.Copy(h, f)
		f.Close()
	}
	return "src:" + hex.EncodeToString(h.Sum(nil)[:8])
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run measured: written to the results
// directory so runs can be compared later, with their raw samples.
type record struct {
	Fingerprint fingerprint          `json:"fingerprint"`
	Workload    string               `json:"workload"`
	Seed        uint64               `json:"seed"`
	Seconds     int                  `json:"seconds"`
	Trace       bool                 `json:"trace"`
	Attempted   int                  `json:"attempted"`
	Failed      int                  `json:"failed"`
	Failures    []string             `json:"failures,omitempty"`
	Digest      string               `json:"digest"`
	Metrics     map[string]metric    `json:"metrics"`
	Samples     map[string][]float64 `json:"samples"`
	Layers      map[string]float64   `json:"layer_pct,omitempty"`
	Spans       []spanStat           `json:"spans"`
	Stats       json.RawMessage      `json:"stats,omitempty"`
	ChromeTrace []chromeEvent        `json:"traceEvents,omitempty"`
}

func readRecords(paths []string) ([]record, error) {
	var out []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// compareRecords prints, per workload and metric, each side's median and
// quartiles over its runs, and the change in median. It refuses records
// from different hosts unless force is set.
func compareRecords(w io.Writer, a, b []record, force bool) error {
	if len(a) == 0 || len(b) == 0 {
		return fmt.Errorf("compare: need records on both sides")
	}
	host := a[0].Fingerprint.hostKey()
	for _, rec := range append(append([]record(nil), a...), b...) {
		if k := rec.Fingerprint.hostKey(); k != host && !force {
			return fmt.Errorf("compare: host fingerprints differ (%q vs %q); rerun both sides on one host, or pass -force", host, k)
		}
	}
	type key struct{ workload, metric string }
	vals := map[key][2][]float64{}
	units := map[key]string{}
	digests := map[string][2]map[string]bool{}
	for side, recs := range [2][]record{a, b} {
		for _, rec := range recs {
			for name, m := range rec.Metrics {
				k := key{rec.Workload, name}
				v := vals[k]
				v[side] = append(v[side], m.Value)
				vals[k] = v
				units[k] = m.Unit
			}
			d := digests[rec.Workload]
			if d[side] == nil {
				d[side] = map[string]bool{}
			}
			d[side][rec.Digest] = true
			digests[rec.Workload] = d
		}
	}
	keys := make([]key, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-14s %-26s %-8s %30s %30s %9s %9s\n", "workload", "metric", "unit",
		"A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "A spread")
	for _, k := range keys {
		v := vals[k]
		if len(v[0]) == 0 || len(v[1]) == 0 {
			continue
		}
		a1, a2, a3 := quartiles(v[0])
		b1, b2, b3 := quartiles(v[1])
		change := "n/a"
		if a2 != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(b2-a2)/a2)
		}
		// A change smaller than A's own spread (interquartile distance
		// over median) is not distinguishable from noise.
		fmt.Fprintf(w, "%-14s %-26s %-8s %30s %30s %9s %8.1f%%\n", k.workload, k.metric, units[k],
			fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", a2, a1, a3, len(v[0])),
			fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", b2, b1, b3, len(v[1])), change, 100*spread(v[0]))
	}
	for _, wl := range sortedKeys(digests) {
		d := digests[wl]
		same := len(d[0]) == 1 && len(d[1]) == 1
		for k := range d[0] {
			same = same && d[1][k]
		}
		if !same {
			fmt.Fprintf(w, "%s: simulated output differs between or within sides (digests A %v, B %v)\n",
				wl, sortedKeys(d[0]), sortedKeys(d[1]))
		}
	}
	return nil
}
