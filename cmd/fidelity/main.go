// Command fidelity is the FIdelity framework's one binary: the derived
// artifacts of an accelerator design, the Sec. IV validation, the Sec. V
// resilience study with the Sec. VI comparisons, the hardening loop, and the
// distributed form of the same campaigns, on the NVDLA-small configuration.
//
// Usage:
//
//	fidelity table1                                    # Reuse Factor Analysis summary (Table I)
//	fidelity table2 [-csv]                             # software fault models (Table II)
//	fidelity fig2 [-k 4] [-t 16]                       # Fig 2 worked examples
//	fidelity census                                    # FF census
//	fidelity sensitivity [-net yolo] [-ff D] [-act D]  # FIT bounds under perturbed estimates
//	fidelity harden [-net mobilenet] [-budget FIT]     # campaign -> clamp -> re-measure -> report
//	fidelity study -fig 4|5|6  [-samples N] [-inputs N] [-seed S]
//	fidelity study -setup | -perturbation | -speedup [-iters N] | -baseline | -protect
//	fidelity validate [-samples 10000] [-seed 1] [-v]   # Sec. IV: cycle-level golden vs fault models
//	fidelity serve -addr :9090 -net mobilenet [-samples N] [-state F] ...
//	fidelity work  -coordinator http://host:9090 [-id NAME] ...
//
// `fidelity <subcommand> -h` lists a subcommand's flags; a campaign flag means
// the same thing wherever it appears. -samples scales the per-model
// experiment count (the paper's study is 46M experiments; Wilson 95% CIs are
// reported so the statistical resolution is explicit). -target-ci W replaces
// the fixed count with adaptive stratified sampling: planner rounds stop each
// stratum once its 95% Wilson CI half-width reaches W, typically at a small
// fraction of the fixed-count budget. -workers changes wall-clock time only.
//
// Campaigns are long-lived jobs, not function calls. SIGINT (Ctrl-C) stops
// `study` at an experiment boundary and saves a resumable checkpoint to
// -checkpoint; rerunning with -resume <file> continues it to a result
// identical to an uninterrupted run. -progress <interval> emits JSONL
// telemetry snapshots to stderr, and -manifest writes a machine-readable run
// summary next to the report output. Every campaign subcommand (study,
// sensitivity, harden, validate, serve, work) takes -cpuprofile, -memprofile
// and -trace, which write stdlib pprof profiles and a runtime execution trace
// of the run and change none of its output.
//
// `serve` and `work` fan a campaign out over machines instead of local
// -workers. `serve` runs the coordinator: it partitions the campaign into
// the engine's deterministic logical shards, hands them to workers as
// time-bounded leases over a JSON/HTTP API, collects streamed shard
// checkpoints, re-leases shards whose heartbeats lapse, and assembles the
// final StudyResult — byte identical to an in-process run with the same
// -seed and -shards, whatever the worker count or failure pattern. With
// -state the lease table and collected checkpoints persist through the
// campaign engine's fsync'd checkpoint machinery, so a restarted coordinator
// resumes the campaign instead of restarting it. `work` runs a worker: it
// polls the coordinator for leases with retry/backoff (surviving coordinator
// restarts), executes shards via the campaign engine, and streams
// checkpoints and telemetry back as heartbeats.
//
// Exit codes, for every subcommand: 0 complete, 1 error, 2 usage, 3 partial
// result (a shard exhausted its failure budget or failed its audit), 130
// interrupted.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"syscall"
	"time"

	"fidelity/internal/campaign"
	"fidelity/internal/telemetry"
)

// subcommands is the whole CLI, in usage order. setup registers the
// subcommand's flags on fs and returns its body; main parses between the
// two, so a test can read a subcommand's flag surface without running it.
var subcommands = []struct {
	name, summary string
	setup         func(fs *flag.FlagSet) func(context.Context) error
}{
	{"table1", "print the Reuse Factor Analysis summary (paper Table I)", table1},
	{"table2", "print the derived NVDLA software fault models (paper Table II)", table2},
	{"fig2", "run the Fig 2 reuse-factor examples (NVDLA-like and Eyeriss-like)", fig2},
	{"census", "print the FF census of the NVDLA-small configuration", census},
	{"sensitivity", "FIT bounds under perturbed FF-count/activeness estimates", sensitivity},
	{"harden", "closed hardening loop: campaign -> rank -> mitigate -> re-measure", harden},
	{"study", "Sec. V resilience study and Sec. VI comparisons (-fig 4|5|6, -setup, ...)", study},
	{"validate", "Sec. IV validation against the cycle-level golden reference", validate},
	{"serve", "run the campaign coordinator (lease shards to workers over HTTP)", serve},
	{"work", "run a worker against a coordinator", work},
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) > 0 {
		for _, sc := range subcommands {
			if sc.name != args[0] {
				continue
			}
			// SIGINT/SIGTERM cancel the campaign context; workers stop at an
			// experiment boundary and the engine saves a checkpoint.
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			defer stop()
			fs := flag.NewFlagSet("fidelity "+sc.name, flag.ExitOnError)
			body := sc.setup(fs)
			fs.Parse(args[1:]) // ExitOnError: a bad flag exits 2 here
			err := body(ctx)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fidelity:", err)
			}
			if errors.As(err, new(*usageError)) {
				fs.Usage()
			}
			return exitCode(err)
		}
	}
	fmt.Fprint(os.Stderr, "usage: fidelity <subcommand> [flags]\n\n")
	for _, sc := range subcommands {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", sc.name, sc.summary)
	}
	fmt.Fprintln(os.Stderr, "\nrun \"fidelity <subcommand> -h\" for its flags")
	return 2
}

// errPartial marks a campaign that completed degraded — a shard exhausted
// its failure budget or failed its audit re-run. It maps to a distinct exit
// code so schedulers can tell flagged partial results from hard failures.
var errPartial = errors.New("partial result (a shard exhausted its failure budget or failed its audit)")

// usageError rejects nonsensical flag values before any campaign state is
// touched: main prints the complaint and the subcommand's usage text and
// exits 2, the same code as an unknown subcommand.
type usageError struct{ msg string }

func (e *usageError) Error() string { return e.msg }

func usagef(format string, args ...any) error {
	return &usageError{fmt.Sprintf(format, args...)}
}

// exitCode is the one mapping from a subcommand's error to the process exit
// status: 0 ok, 1 failure, 2 usage, 3 partial, 130 interrupted.
func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.As(err, new(*usageError)):
		return 2
	case errors.Is(err, errPartial):
		return 3
	case errors.As(err, new(*campaign.Interrupted)), errors.Is(err, context.Canceled):
		return 130
	}
	return 1
}

// cli is what the shared flags bind: the engine's options plus the
// run-level values that are not engine options.
type cli struct {
	opts     campaign.StudyOptions
	net      string
	progress time.Duration
	manifest string

	cpuProfile, memProfile, execTrace string
}

// flagDef declares one shared flag: its name and the cli field it fills.
type flagDef struct {
	name  string
	field func(*cli) any
}

// Every flag that sets an engine option, or that more than one subcommand
// takes, is declared here and nowhere else.
var (
	fSamples            = flagDef{"samples", func(c *cli) any { return &c.opts.Samples }}
	fTargetCI           = flagDef{"target-ci", func(c *cli) any { return &c.opts.TargetCI }}
	fInputs             = flagDef{"inputs", func(c *cli) any { return &c.opts.Inputs }}
	fTolerance          = flagDef{"tolerance", func(c *cli) any { return &c.opts.Tolerance }}
	fSeed               = flagDef{"seed", func(c *cli) any { return &c.opts.Seed }}
	fWorkers            = flagDef{"workers", func(c *cli) any { return &c.opts.Workers }}
	fShards             = flagDef{"shards", func(c *cli) any { return &c.opts.Shards }}
	fPerLayer           = flagDef{"perlayer", func(c *cli) any { return &c.opts.PerLayer }}
	fCheckpoint         = flagDef{"checkpoint", func(c *cli) any { return &c.opts.CheckpointPath }}
	fCheckpointInterval = flagDef{"checkpoint-interval", func(c *cli) any { return &c.opts.CheckpointInterval }}
	fExperimentTimeout  = flagDef{"experiment-timeout", func(c *cli) any { return &c.opts.ExperimentTimeout }}
	fFailureBudget      = flagDef{"failure-budget", func(c *cli) any { return &c.opts.FailureBudget }}
	fNet                = flagDef{"net", func(c *cli) any { return &c.net }}
	fProgress           = flagDef{"progress", func(c *cli) any { return &c.progress }}
	fManifest           = flagDef{"manifest", func(c *cli) any { return &c.manifest }}
	fCPUProfile         = flagDef{"cpuprofile", func(c *cli) any { return &c.cpuProfile }}
	fMemProfile         = flagDef{"memprofile", func(c *cli) any { return &c.memProfile }}
	fTrace              = flagDef{"trace", func(c *cli) any { return &c.execTrace }}
)

// on registers the flag for one subcommand. Its default is whatever the
// subcommand put in the field beforehand, and the help is the subcommand's
// own wording.
func (d flagDef) on(fs *flag.FlagSet, c *cli, help string) {
	switch p := d.field(c).(type) {
	case *int:
		fs.IntVar(p, d.name, *p, help)
	case *int64:
		fs.Int64Var(p, d.name, *p, help)
	case *float64:
		fs.Float64Var(p, d.name, *p, help)
	case *bool:
		fs.BoolVar(p, d.name, *p, help)
	case *string:
		fs.StringVar(p, d.name, *p, help)
	case *time.Duration:
		fs.DurationVar(p, d.name, *p, help)
	}
}

// finish runs after parsing. It applies the one rule the engine cannot see —
// an explicit -samples beside -target-ci (a defaulted -samples just yields) —
// and then holds the options to the engine's own sampling rule.
func (c *cli) finish(fs *flag.FlagSet) error {
	if c.opts.TargetCI != 0 {
		explicit := false
		fs.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == fSamples.name })
		if explicit {
			return usagef("-samples and -target-ci are mutually exclusive (the adaptive planner sizes each stratum itself)")
		}
		c.opts.Samples = 0
	}
	return optionUsage(c.opts.Validate())
}

// optionUsage turns the engine's rejection of an option into a usage error
// naming the flag that sets it; any other error passes through.
func optionUsage(err error) error {
	var bad *campaign.OptionError
	if errors.As(err, &bad) {
		return usagef("-%s %s", bad.Option, bad.Problem)
	}
	return err
}

// progressLine is one JSONL progress record: the cumulative telemetry
// snapshot plus the experiments/sec over the last emission window.
type progressLine struct {
	telemetry.Snapshot
	IntervalPerSec float64 `json:"interval_per_sec"`
}

// emitProgress starts the periodic JSONL telemetry emitter (stderr, one
// snapshot per line, every -progress) and returns its stop function.
func (c *cli) emitProgress(snap func() telemetry.Snapshot) (stop func()) {
	enc := json.NewEncoder(os.Stderr)
	var prev telemetry.Snapshot
	return campaign.Every(c.progress, func() {
		s := snap()
		_ = enc.Encode(progressLine{Snapshot: s, IntervalPerSec: s.RateSince(prev)}) // stderr diagnostics
		prev = s
	})
}

// profiled registers -cpuprofile, -memprofile and -trace on fs and returns
// body run under them: a CPU profile and a runtime execution trace of the
// whole body, a heap profile written once it returns. They write only their
// own files, so what a run prints is the same bytes with them on or off.
func (c *cli) profiled(fs *flag.FlagSet, body func(context.Context) error) func(context.Context) error {
	fCPUProfile.on(fs, c, "write a CPU profile of the run to this file (go tool pprof; empty = off)")
	fMemProfile.on(fs, c, "write a heap profile to this file when the run ends (go tool pprof; empty = off)")
	fTrace.on(fs, c, "write a runtime execution trace of the run to this file (go tool trace; empty = off)")
	return func(ctx context.Context) (err error) {
		var stops []func() error
		defer func() {
			for i := len(stops) - 1; i >= 0; i-- {
				if serr := stops[i](); err == nil {
					err = serr
				}
			}
		}()
		// The heap profile comes first so that it is written last, after the
		// CPU profile and the trace have stopped.
		for _, p := range []struct {
			path        string
			start, stop func(io.Writer) error
		}{
			{c.memProfile, nil, func(w io.Writer) error { runtime.GC(); return pprof.Lookup("heap").WriteTo(w, 0) }},
			{c.cpuProfile, pprof.StartCPUProfile, func(io.Writer) error { pprof.StopCPUProfile(); return nil }},
			{c.execTrace, trace.Start, func(io.Writer) error { trace.Stop(); return nil }},
		} {
			if p.path == "" {
				continue
			}
			//lint:allow ioretry a profile streams while the run goes on and is a diagnostic, not a campaign artifact
			f, err := os.Create(p.path)
			if err != nil {
				return err
			}
			if p.start != nil {
				if err := p.start(f); err != nil {
					f.Close()
					return err
				}
			}
			stops = append(stops, func() error { return errors.Join(p.stop(f), f.Close()) })
		}
		return body(ctx)
	}
}

// manifestHeader opens both run-manifest shapes: study's per-cell summary
// and serve's lease-table summary.
type manifestHeader struct {
	Command string    `json:"command"`
	Mode    string    `json:"mode"`
	Args    []string  `json:"args"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
}

func newManifestHeader(mode string, start time.Time) manifestHeader {
	return manifestHeader{Command: "fidelity", Mode: mode, Args: os.Args[2:], Start: start, End: time.Now()}
}

// saveManifest persists the machine-readable run summary to -manifest under
// the engine's I/O retry policy. A failure is reported, not fatal: the
// report output it summarizes has already been produced.
func (c *cli) saveManifest(tel *telemetry.Collector, m any) {
	if c.manifest == "" {
		return
	}
	err := campaign.RetryIO(tel, func() error {
		return campaign.AtomicWriteJSON(c.manifest, m)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fidelity: manifest:", err)
	}
}

// writeJSON writes v durably to path, or indented to stdout when path is
// empty.
func writeJSON(path string, v any, indent string) error {
	if path != "" {
		return campaign.AtomicWriteJSON(path, v)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", indent)
	return enc.Encode(v)
}

// removeFinished deletes a checkpoint or coordinator state file after its
// campaign completed cleanly: left behind it would only replay the finished
// run. Interrupted and partial runs keep theirs — it is what resumes them.
func removeFinished(path string) {
	_ = os.Remove(path) // best effort; an unset or already absent path is the common case
}
