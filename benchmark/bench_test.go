package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json in full.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// quickRun makes one quick pass in process, the way the driver invokes the
// benchmark, and returns the exit code, the driver line and the -json report.
func quickRun(t *testing.T, out, workload, trace string, extra ...string) (int, driverLine, result) {
	t.Helper()
	jsonPath := filepath.Join(out, "report.json")
	args := append([]string{"--workload", workload, "--seed", "1", "--seconds", "0.05", "--trace", trace,
		"-quick", "-out", out, "-json", jsonPath}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if code > 1 {
		t.Fatalf("%s trace=%s: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line driverLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s trace=%s: last line of stdout is not the result object: %v\n%s", workload, trace, err, stdout.String())
	}
	rep, err := readReport(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("%s: report holds %d results, want 1", workload, len(rep.Results))
	}
	if rep.Env.GoVersion == "" || rep.Env.NumCPU == 0 || rep.Env.GOMAXPROCS == 0 || rep.Env.CPUModel == "" || rep.Env.Commit == "" {
		t.Errorf("environment is incomplete: %+v", rep.Env)
	}
	return code, line, rep.Results[0]
}

// TestSmoke runs every declared workload at the quick sizes, end to end and
// traced, and holds the output to BENCHMARK.json: every declared metric
// exactly once with its unit, well-formed names, the same digest from both
// passes, a span file whose top-level spans cover the traced wall.
func TestSmoke(t *testing.T) {
	spec := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	out := t.TempDir()
	if len(spec.Workloads) != len(allWorkloads(true, 1)) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(allWorkloads(true, 1)))
	}
	for _, wl := range spec.Workloads {
		digests := map[string]string{}
		for trace, want := range map[string][]declared{"0": spec.EndToEnd, "1": spec.PerLayer} {
			code, line, res := quickRun(t, out, wl.Name, trace)
			if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%s: exit %d, line %+v, errors %v", wl.Name, trace, code, line, res.Errors)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%s: result line has %d metrics, BENCHMARK.json declares %d", wl.Name, trace, len(line.Metrics), len(want))
			}
			seen := map[string]int{}
			for _, m := range res.Metrics {
				seen[m.Name]++
				if !name.MatchString(m.Name) || m.Unit == "" {
					t.Errorf("%s: metric %q unit %q is malformed", wl.Name, m.Name, m.Unit)
				}
			}
			for _, d := range want {
				if seen[d.Name] != 1 {
					t.Errorf("%s trace=%s: metric %s emitted %d times, want once", wl.Name, trace, d.Name, seen[d.Name])
				}
				if got, ok := line.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s trace=%s: result line has %s = %+v, want unit %q", wl.Name, trace, d.Name, got, d.Unit)
				}
			}
			digests[trace] = res.digest()
			if trace == "1" {
				if res.TraceCoverage < 0.95 {
					t.Errorf("%s: top-level spans cover %.3f of the traced wall, want >= 0.95", wl.Name, res.TraceCoverage)
				}
				if fi, err := os.Stat(res.TraceFile); err != nil || fi.Size() == 0 {
					t.Errorf("%s: span file %s: %v", wl.Name, res.TraceFile, err)
				}
			}
		}
		if digests["0"] == "" || digests["0"] != digests["1"] {
			t.Errorf("%s: digest %q from the end-to-end run, %q from the traced run", wl.Name, digests["0"], digests["1"])
		}
	}
	if left, err := filepath.Glob(filepath.Join(out, "*-*")); err != nil || len(left) != len(spec.Workloads) {
		t.Errorf("runs left %v behind (err %v); want only the %d span files", left, err, len(spec.Workloads))
	}
}

// TestCatalogMatchesBenchmarkFile keeps BENCHMARK.json and the catalog one
// list.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	spec := readBenchmarkFile(t)
	check := func(kind string, defs []metricDef, decl []declared) {
		var want []metricDef
		for _, d := range defs {
			if !zeroExpected[d.name] {
				want = append(want, d)
			}
		}
		if len(want) != len(decl) {
			t.Fatalf("%s: catalog has %d metrics, BENCHMARK.json %d", kind, len(want), len(decl))
		}
		for i, d := range want {
			if got := decl[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, catalog %+v", kind, i, got, d)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for i, wl := range allWorkloads(false, 1) {
		if got := spec.Workloads[i]; got.Name != wl.name || got.Why != wl.why || len(wl.why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q (why: %d chars)", i, got.Name, wl.name, len(wl.why))
		}
	}
	setup := false
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("BENCHMARK.json lacks setup_s [s, lower]")
	}
}

// TestCorruptedDigestFails pins a wrong digest and expects the run to count
// every experiment as failed and to exit non-zero.
func TestCorruptedDigestFails(t *testing.T) {
	exp, err := loadExpectations("")
	if err != nil {
		t.Fatal(err)
	}
	const wl = "mobilenet-fixed"
	c, ok := exp.Sizes["quick"][wl]
	if !ok {
		t.Fatalf("expected.json pins no quick digest for %s", wl)
	}
	if len(c.Digests) < setups {
		t.Fatalf("expected.json pins %d quick digests for %s, want at least %d", len(c.Digests), wl, setups)
	}
	corrupted := make([]string, len(c.Digests))
	for i, d := range c.Digests {
		corrupted[i] = strings.Repeat("0", len(d))
	}
	c.Digests = corrupted
	exp.Sizes["quick"][wl] = c
	blob, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	corrupt := filepath.Join(out, "expected.json")
	if err := os.WriteFile(corrupt, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	code, line, res := quickRun(t, out, wl, "0", "-expected", corrupt)
	if code == 0 || line.Correct || line.Failed == 0 {
		t.Errorf("corrupted digest: exit %d, line %+v; want a non-zero exit and failed experiments", code, line)
	}
	for _, m := range res.Metrics {
		if m.Name == "failed_frac" && m.Value <= 0 {
			t.Errorf("failed_frac = %v, want > 0", m.Value)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
	q1, med, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || med != 3.5 || q3 != 5.75 {
		t.Errorf("quartiles = %v %v %v, want 1.25 3.5 5.75", q1, med, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
	q1, med, q3 = quartiles([]float64{30, 10, 20})
	if q1 != 10 || med != 20 || q3 != 30 {
		t.Errorf("quartiles = %v %v %v, want 10 20 30", q1, med, q3)
	}
}

func TestJoinTraceValue(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "x", "--trace", "1", "-trace", "--trace", "0", "--trace"})
	want := []string{"--workload", "x", "-trace=1", "-trace", "-trace=0", "--trace"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("joinTraceValue = %v, want %v", got, want)
	}
}

// TestCompareVerdicts drives the compare subcommand on synthetic reports: a
// regression beyond the bound and a larger failed_frac exit non-zero, a pair
// noisier than its bound is unresolved rather than unchanged.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate []float64, failed float64, count float64) string {
		rec := newRecorder(endToEnd)
		rec.samples("exp_per_s", rate, "")
		rec.samples("time_to_ci_s", []float64{1, 1, 1}, "")
		rec.samples("setup_s", []float64{1, 1, 1}, "")
		rec.value("failed_frac", failed, 100, "")
		traced := newRecorder(perLayer)
		traced.value("campaign.experiments", count, 1, "")
		r := report{Results: []result{
			{Workload: "w", Seed: 1, Size: "full", Correct: true, Digests: []string{"d"}, Metrics: rec.metrics()},
			{Workload: "w", Seed: 1, Size: "full", Traced: true, Correct: true, Digests: []string{"d"}, Metrics: traced.metrics()},
		}}
		path := filepath.Join(dir, name)
		if err := writeReport(path, &r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// The verdicts are tested against a 10% bound, whatever BENCHMARK.json
	// currently fixes.
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [{"name": "exp_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("a.json", []float64{100, 101, 99, 100, 100}, 0, 2100)
	cases := []struct {
		name, want string
		path       string
		code       int
	}{
		{"same", "within bound", write("same.json", []float64{99, 100, 101, 100, 100}, 0, 2100), 0},
		{"slower", "REGRESSED", write("slow.json", []float64{80, 81, 79, 80, 80}, 0, 2100), 1},
		{"faster", "improved", write("fast.json", []float64{120, 121, 119, 120, 120}, 0, 2100), 0},
		{"noisy", "unresolved", write("noisy.json", []float64{60, 140, 100, 80, 120}, 0, 2100), 0},
		{"failing", "any increase regresses", write("fail.json", []float64{100, 101, 99, 100, 100}, 0.01, 2100), 1},
		{"recount", "changed (exact count)", write("count.json", []float64{100, 101, 99, 100, 100}, 0, 2101), 0},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run([]string{"compare", "-spec", spec, base, c.path}, &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String(), c.want) {
			t.Errorf("%s: exit %d, want %d, and output should contain %q:\n%s%s", c.name, code, c.code, c.want, stdout.String(), stderr.String())
		}
	}
}
