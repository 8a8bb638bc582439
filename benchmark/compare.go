package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json compare applies: each
// end-to-end metric's direction and the share of the baseline's median it may
// worsen by.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare implements `benchmark compare A.json B.json`: A is the
// baseline, B the candidate. One row per (workload, metric) with both
// reported values (medians) and quartiles. An end-to-end pair whose own
// run-to-run spread is wider than its bound is reported unresolved, not
// unchanged. Exit status is non-zero on a regression, on a larger failed_frac
// or mismatch_frac, and on a changed result digest.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition holding each end-to-end metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] A.json B.json")
		return 2
	}
	blob, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %s: %v\n", *specPath, err)
		return 2
	}
	a, err := readReport(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	b, err := readReport(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	if a.Env.Workers != b.Env.Workers || a.Env.CPUModel != b.Env.CPUModel {
		fmt.Fprintf(stdout, "note: A ran on %q with %d workers, B on %q with %d: timings are not comparable\n",
			a.Env.CPUModel, a.Env.Workers, b.Env.CPUModel, b.Env.Workers)
	}

	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	better := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		better[d.name] = d.better
	}

	var regressed, unresolved, changed int
	fmt.Fprintf(stdout, "%-20s %-32s %-9s %14s %-27s %14s %-27s %9s  %s\n",
		"workload", "metric", "unit", "A value", "A [q1, q3]", "B value", "B [q1, q3]", "change", "verdict")
	for _, ra := range a.Results {
		rb, ok := findResult(b, ra)
		if !ok {
			fmt.Fprintf(stdout, "%-20s (traced=%t) is in A only\n", ra.Workload, ra.Traced)
			continue
		}
		for i := 0; i < min(len(ra.Digests), len(rb.Digests)); i++ {
			if ra.Digests[i] != rb.Digests[i] {
				fmt.Fprintf(stdout, "%-20s RESULT CHANGED at seed %d: digest %s in A, %s in B\n", ra.Workload, ra.Seed+int64(i), ra.Digests[i], rb.Digests[i])
				regressed++
			}
		}
		mb := map[string]metric{}
		for _, m := range rb.Metrics {
			mb[m.Name] = m
		}
		for _, ma := range ra.Metrics {
			m, ok := mb[ma.Name]
			if !ok || ma.N == 0 || m.N == 0 {
				continue
			}
			verdict := ""
			bound, bounded := bounds[ma.Name]
			switch {
			case zeroExpected[ma.Name]:
				verdict = "equal"
				if m.Value > ma.Value {
					verdict = "REGRESSED (any increase regresses)"
					regressed++
				}
			case ma.Exact:
				verdict = "equal"
				if m.Value != ma.Value {
					verdict = "changed (exact count)"
					changed++
				}
			case bounded:
				var v verdictKind
				v, verdict = judge(ma, m, better[ma.Name], bound)
				switch v {
				case verdictRegressed:
					regressed++
				case verdictUnresolved:
					unresolved++
				}
			}
			fmt.Fprintf(stdout, "%-20s %-32s %-9s %14.6g [%-12.6g %-12.6g] %14.6g [%-12.6g %-12.6g] %+8.2f%%  %s\n",
				ra.Workload, ma.Name, ma.Unit, ma.Value, ma.Q1, ma.Q3, m.Value, m.Q1, m.Q3, 100*relChange(ma.Value, m.Value), verdict)
		}
	}
	fmt.Fprintf(stdout, "\n%d regressed, %d unresolved (spread wider than the bound), %d exact counts changed\n", regressed, unresolved, changed)
	if regressed > 0 {
		return 1
	}
	return 0
}

// findResult returns b's pass of the same workload, kind of pass, seed and
// sizes as ra.
func findResult(b *report, ra result) (result, bool) {
	for _, rb := range b.Results {
		if rb.Workload == ra.Workload && rb.Traced == ra.Traced && rb.Seed == ra.Seed && rb.Size == ra.Size {
			return rb, true
		}
	}
	return result{}, false
}

func relChange(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a
}

type verdictKind int

const (
	verdictOK verdictKind = iota
	verdictRegressed
	verdictUnresolved
)

// judge applies one end-to-end metric's bound to a baseline / candidate pair.
func judge(a, b metric, better string, bound float64) (verdictKind, string) {
	worse := relChange(a.Value, b.Value) // lower is better
	if better == "higher" {
		worse = -worse
	}
	noise := max(valueSpread(a), valueSpread(b))
	if noise > bound {
		// Too noisy to call unchanged; only a clean sweep still counts.
		if allBetter(a.Samples, b.Samples, better) {
			return verdictOK, "improved (every B run beats every A run)"
		}
		return verdictUnresolved, fmt.Sprintf("unresolved (spread %.1f%% > bound %.0f%%)", 100*noise, 100*bound)
	}
	switch {
	case worse > bound:
		return verdictRegressed, fmt.Sprintf("REGRESSED (worse by %.1f%% > bound %.0f%%)", 100*worse, 100*bound)
	case allBetter(a.Samples, b.Samples, better):
		return verdictOK, "improved (every B run beats every A run)"
	default:
		return verdictOK, fmt.Sprintf("within bound %.0f%%", 100*bound)
	}
}

// valueSpread estimates from one run's samples how far that run's reported
// median moves from run to run, as an interquartile distance over the value:
// for roughly normal noise the median of n samples spreads 1.25/sqrt(n) as
// wide as the samples do.
func valueSpread(m metric) float64 {
	if m.N < 2 {
		return 0
	}
	return 1.25 * spread(m.Q1, m.Value, m.Q3) / math.Sqrt(float64(m.N))
}

// allBetter reports whether every candidate sample beats every baseline one.
func allBetter(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// runPin implements `benchmark pin REPORT.json...`: it prints the
// expected.json that pins the reports' default-seed digests and
// box-independent exact counts.
func runPin(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: benchmark pin REPORT.json... > benchmark/expected.json")
		return 2
	}
	pinned := map[string]bool{}
	for _, d := range perLayer {
		pinned[d.name] = d.pinned
	}
	exp := expectations{Seed: defaultSeed, Sizes: map[string]map[string]expectedCase{}}
	for _, path := range args {
		r, err := readReport(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark pin:", err)
			return 2
		}
		for _, res := range r.Results {
			if res.Seed != defaultSeed || !res.Correct {
				fmt.Fprintf(stderr, "benchmark pin: %s: %s has seed %d, correct=%t; pin only correct default-seed results\n",
					path, res.Workload, res.Seed, res.Correct)
				return 1
			}
			if exp.Sizes[res.Size] == nil {
				exp.Sizes[res.Size] = map[string]expectedCase{}
			}
			c := exp.Sizes[res.Size][res.Workload]
			for i, d := range res.Digests {
				if i < len(c.Digests) && c.Digests[i] != d {
					fmt.Fprintf(stderr, "benchmark pin: %s: %s has two digests at seed %d\n", path, res.Workload, res.Seed+int64(i))
					return 1
				}
			}
			if len(res.Digests) > len(c.Digests) {
				c.Digests = res.Digests
			}
			for _, m := range res.Metrics {
				if res.Traced && pinned[m.Name] && m.N > 0 {
					if c.Counts == nil {
						c.Counts = map[string]float64{}
					}
					c.Counts[m.Name] = m.Value
				}
			}
			exp.Sizes[res.Size][res.Workload] = c
		}
	}
	blob, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark pin:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", blob)
	return 0
}
