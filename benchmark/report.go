package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// environment records what the numbers were measured on.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Commit     string `json:"commit"`
}

// result is one pass of one workload.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Size is the frozen size set: "full", or "quick" for the smoke test.
	Size string `json:"size"`
	// Traced marks the pass the per-layer metrics come from; end-to-end
	// metrics come only from untraced passes.
	Traced    bool `json:"traced"`
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Digests[i] is the result digest of the campaign sampled at seed + i;
	// Digests[0] is the one a traced pass reproduces.
	Digests []string `json:"digests"`
	Errors  []string `json:"errors,omitempty"`
	WallS   float64  `json:"wall_s"`
	// TimingsS[i] are the wall-clock timings of the campaign sampled at
	// seed + i, one per cycle of the end-to-end pass's loop, as measured;
	// HostFactors[i] the host factor each was divided by (hostspeed.go).
	TimingsS    [][]float64 `json:"timings_s,omitempty"`
	HostFactors [][]float64 `json:"host_factors,omitempty"`
	Metrics     []metric    `json:"metrics"`
	// TraceFile and TraceCoverage describe the span file of a traced pass:
	// the share of the pass's wall its top-level spans cover.
	TraceFile     string  `json:"trace_file,omitempty"`
	TraceCoverage float64 `json:"trace_coverage,omitempty"`
}

// digest is the result digest at the run's own seed.
func (r result) digest() string {
	if len(r.Digests) == 0 {
		return ""
	}
	return r.Digests[0]
}

// report is the -json export: what compare and pin read.
type report struct {
	Env     environment `json:"env"`
	Results []result    `json:"results"`
}

func readReport(path string) (*report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeReport(path string, r *report) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func currentEnvironment(workers int) environment {
	return environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Commit:     commit(),
	}
}

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

// commit asks git for HEAD; a checkout that is not a repository has none.
func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printResult writes one pass for people: every metric by name with unit,
// value, quartiles and sample count.
func printResult(w io.Writer, env environment, r result) {
	pass := "end-to-end"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s  pass=%s seed=%d size=%s GOMAXPROCS=Workers=%d  %.1fs ==\n",
		r.Workload, pass, r.Seed, r.Size, env.Workers, r.WallS)
	for _, m := range r.Metrics {
		if m.N == 0 {
			fmt.Fprintf(w, "  %-32s %-9s n/a  (%s)\n", m.Name, m.Unit, m.Note)
			continue
		}
		exact := ""
		if m.Exact {
			exact = " exact"
		}
		fmt.Fprintf(w, "  %-32s %-9s %-14.6g q1 %-12.6g q3 %-12.6g n=%d%s", m.Name, m.Unit, m.Value, m.Q1, m.Q3, m.N, exact)
		if m.Note != "" {
			fmt.Fprintf(w, "  [%s]", m.Note)
		}
		fmt.Fprintln(w)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  trace: %s, top-level spans cover %.1f%% of the traced wall\n", r.TraceFile, 100*r.TraceCoverage)
	}
	verdict := "ok"
	if !r.Correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "  checks: %s  attempted=%d failed=%d campaigns-digested=%d first=%s\n", verdict, r.Attempted, r.Failed, len(r.Digests), r.digest())
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// driverLine is the last line of standard output of a single-workload run:
// the object the benchmark driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printDriverLine(w io.Writer, r result) error {
	line := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, m := range r.Metrics {
		if zeroExpected[m.Name] {
			continue
		}
		line.Metrics[m.Name] = driverValue{Value: m.Value, Unit: m.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
