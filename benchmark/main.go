// Command benchmark is the repository's benchmark: campaign throughput and
// time-to-CI end to end on six workloads, and a per-module cost split from
// one traced pass per workload. Every layer is measured from outside, by
// timing calls into exported functions; see README.md.
//
//	go run ./benchmark                       all six workloads, each in a fresh child process
//	go run ./benchmark -trace                the same plus one traced pass per workload
//	go run ./benchmark -workload resnet-fixed -seed 7 -seconds 18 -trace 0
//	go run ./benchmark compare A.json B.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"fidelity/internal/accel"
)

// passTimeout keeps a single-workload run inside the driver's 180 s limit
// whatever the box does.
const passTimeout = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	jsonPath string
	outDir   string
	expected string
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "pin":
			return runPin(args[1:], stdout, stderr)
		}
	}
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: all six, each in a fresh child process)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "campaign / validation sampling seed; the engine receives only the options generated from it")
	fs.Float64Var(&o.seconds, "seconds", 18, "how long the closed loop of campaigns measures")
	fs.BoolVar(&o.trace, "trace", false, "make the traced pass (per-layer metrics, span file) instead of the end-to-end pass; with all workloads, make both")
	fs.BoolVar(&o.quick, "quick", false, "seconds-scale sizes for the smoke test; not comparable with full-size numbers")
	fs.StringVar(&o.jsonPath, "json", "", "also write every metric with quartiles and sample counts to this file")
	fs.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for span files and temporary state; the only place the benchmark writes")
	fs.StringVar(&o.expected, "expected", "", "check against this file in place of the embedded expected.json")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	workers := loadWorkers(runtime.NumCPU())
	runtime.GOMAXPROCS(workers)

	if o.workload == "" {
		return runAll(o, workers, stdout, stderr)
	}
	return runOne(o, workers, stdout, stderr)
}

// loadWorkers sizes the load to the box: one generator process with
// GOMAXPROCS = Workers = half the CPUs, at least 1 and at most 4. Half, not
// all: on the 2-vCPU reference sandbox the second vCPU is not a second CPU —
// two spinning threads each run at 70-85% of one thread's speed and wander
// by +-12% from one five-second window to the next, and ten-seed sets of runs
// at Workers=2 spread 17-24% against 7-12% at Workers=1 (README.md).
// campaign.scaling_eff still measures what a second worker buys.
func loadWorkers(nproc int) int { return max(1, min(nproc/2, 4)) }

// joinTraceValue rewrites the driver's `--trace 0` / `--trace 1` into the
// -trace=0 form a boolean flag parses, leaving a bare -trace alone.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

// runOne makes one pass of one workload in this process and prints, as the
// last line of standard output, the object the driver reads.
func runOne(o options, workers int, stdout, stderr io.Writer) int {
	wl, err := findWorkload(o.workload, o.quick, o.seed)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	exp, err := loadExpectations(o.expected)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b := &bench{cfg: accel.NVDLASmall(), workers: workers, seed: o.seed, seconds: o.seconds, quick: o.quick, outDir: o.outDir, expected: exp}
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()

	start := time.Now()
	var res result
	if o.trace {
		var tr *tracer
		switch wl.kind {
		case kindFleet:
			res, tr, err = b.traceFleet(ctx, wl)
		case kindValidate:
			res, tr, err = b.traceValidate(ctx, wl)
		default:
			res, tr, err = b.traceCampaign(ctx, wl)
		}
		if err == nil {
			res.TraceCoverage = tr.finish()
			res.TraceFile = filepath.Join(o.outDir, "trace-"+wl.name+".jsonl")
			err = tr.write(res.TraceFile)
		}
	} else {
		res, err = b.runEndToEnd(ctx, wl)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", wl.name, err)
		return 2
	}
	res.WallS = time.Since(start).Seconds()

	env := currentEnvironment(workers)
	printResult(stdout, env, res)
	if o.jsonPath != "" {
		if err := writeReport(o.jsonPath, &report{Env: env, Results: []result{res}}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	if err := printDriverLine(stdout, res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload, each pass in a fresh child process of this
// binary so its numbers do not depend on what ran before, and merges the
// children's reports.
func runAll(o options, workers int, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	passes := []bool{false}
	if o.trace {
		passes = []bool{false, true}
	}
	merged := report{Env: currentEnvironment(workers)}
	code := 0
	for _, wl := range allWorkloads(o.quick, o.seed) {
		for _, traced := range passes {
			part := filepath.Join(o.outDir, fmt.Sprintf("part-%s-%t.json", wl.name, traced))
			args := []string{
				"-workload", wl.name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-trace=" + strconv.FormatBool(traced), "-quick=" + strconv.FormatBool(o.quick),
				"-out", o.outDir, "-expected", o.expected, "-json", part,
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 2
				}
				code = max(code, exit.ExitCode())
			}
			child, err := readReport(part)
			if err != nil {
				// The child failed before it had a result; its own message is
				// already on stderr.
				code = max(code, 2)
				continue
			}
			merged.Results = append(merged.Results, child.Results...)
			if err := os.Remove(part); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
			}
		}
	}
	printSummary(stdout, merged)
	if o.jsonPath != "" {
		if err := writeReport(o.jsonPath, &merged); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	return code
}

// printSummary closes an all-workloads run with the end-to-end metrics side
// by side.
func printSummary(w io.Writer, r report) {
	fmt.Fprintf(w, "\n%s, %s, %d cpus (%s), GOMAXPROCS=Workers=%d, commit %s\n",
		r.Env.GoVersion, r.Env.GOARCH, r.Env.NumCPU, r.Env.CPUModel, r.Env.Workers, r.Env.Commit)
	fmt.Fprintf(w, "%-20s", "workload")
	for _, d := range endToEnd {
		fmt.Fprintf(w, " %20s", d.name+"["+d.unit+"]")
	}
	fmt.Fprintln(w, "  checks")
	for _, res := range r.Results {
		if res.Traced {
			continue
		}
		fmt.Fprintf(w, "%-20s", res.Workload)
		for _, m := range res.Metrics {
			if m.N == 0 {
				fmt.Fprintf(w, " %20s", "n/a")
			} else {
				fmt.Fprintf(w, " %20.6g", m.Value)
			}
		}
		if res.Correct {
			fmt.Fprintln(w, "  ok")
		} else {
			fmt.Fprintln(w, "  FAILED")
		}
	}
}
