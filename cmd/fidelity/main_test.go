package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/distrib"
	"fidelity/internal/fit"
	"fidelity/internal/model"
)

// TestMain lets the test binary impersonate the CLI: when re-exec'd with
// the marker env var set, it runs main() instead of the test suite, so CLI
// tests exercise real flag parsing and exit codes without a separate build.
func TestMain(m *testing.M) {
	if os.Getenv("FIDELITY_CLI_TEST") == "1" {
		main()
	}
	os.Exit(m.Run())
}

// cliCommand is the re-exec'd CLI, run in a scratch dir so the default
// -manifest / -checkpoint artifacts land there, not in the package directory.
func cliCommand(t *testing.T, dir string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FIDELITY_CLI_TEST=1")
	cmd.Dir = dir
	return cmd
}

func exitStatus(t *testing.T, err error) int {
	t.Helper()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	} else if err != nil {
		t.Fatalf("run: %v", err)
	}
	return 0
}

func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := cliCommand(t, t.TempDir(), args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	code := exitStatus(t, cmd.Run())
	return buf.String(), code
}

// wantUsage runs the CLI and requires the usage exit with msg in the output.
func wantUsage(t *testing.T, msg string, args ...string) {
	t.Helper()
	out, code := runCLI(t, args...)
	if code != 2 || !strings.Contains(out, msg) {
		t.Errorf("%v: exit %d, want usage exit 2 with %q\n%s", args, code, msg, out)
	}
}

// The execution-path switches are gone (one path ships; the oracle is a
// test-only seam): a stale script passing one must fail loudly with the
// standard usage exit, not silently run the default path.
func removedPathFlagsRejected(t *testing.T, sub string, tail ...string) {
	for _, args := range [][]string{{"-no-replay"}, {"-no-region-sweep"}, {"-batch", "1"}} {
		wantUsage(t, "flag provided but not defined: "+args[0], append(append([]string{sub}, args...), tail...)...)
	}
}

func TestStudyRemovedPathFlagsRejected(t *testing.T) { removedPathFlagsRejected(t, "study", "-setup") }
func TestSensitivityRemovedPathFlagsRejected(t *testing.T) {
	removedPathFlagsRejected(t, "sensitivity")
}
func TestServeRemovedPathFlagsRejected(t *testing.T) { removedPathFlagsRejected(t, "serve") }

// The sampling rule is the engine's; every subcommand that takes the flags
// reports a violation as a usage error naming the flag. serve's validation
// runs before any listener binds, so rejected invocations never touch the
// network.
func targetCIExcludesSamples(t *testing.T, sub ...string) {
	wantUsage(t, "mutually exclusive", append(sub, "-target-ci", "0.05", "-samples", "100")...)
}

func targetCIRangeValidated(t *testing.T, sub ...string) {
	for _, bad := range []string{"0.6", "-0.1"} {
		wantUsage(t, "-target-ci must be in (0, 0.5]", append(sub, "-target-ci", bad)...)
	}
}

func samplesZeroRejected(t *testing.T, sub ...string) {
	wantUsage(t, "-samples must be positive", append(sub, "-samples", "0")...)
}

func TestStudyTargetCIExcludesSamples(t *testing.T) { targetCIExcludesSamples(t, "study", "-setup") }
func TestStudyTargetCIRangeValidated(t *testing.T)  { targetCIRangeValidated(t, "study", "-setup") }
func TestStudyExistingFlagValidationStillExitsTwo(t *testing.T) {
	samplesZeroRejected(t, "study", "-setup")
	wantUsage(t, "-inputs must be positive", "study", "-setup", "-inputs", "0")
	wantUsage(t, "-shards must be non-negative", "study", "-setup", "-shards", "-1")
	wantUsage(t, "-iters must be positive", "study", "-setup", "-iters", "0")
	wantUsage(t, "-workers must be non-negative", "study", "-setup", "-workers", "-1")
	wantUsage(t, "study needs a mode", "study")
}
func TestSensitivityTargetCIExcludesSamples(t *testing.T) { targetCIExcludesSamples(t, "sensitivity") }
func TestSensitivityTargetCIRangeValidated(t *testing.T)  { targetCIRangeValidated(t, "sensitivity") }
func TestSensitivitySamplesValidated(t *testing.T)        { samplesZeroRejected(t, "sensitivity") }
func TestServeTargetCIExcludesSamples(t *testing.T)       { targetCIExcludesSamples(t, "serve") }
func TestServeTargetCIRangeValidated(t *testing.T)        { targetCIRangeValidated(t, "serve") }
func TestServeSamplesValidated(t *testing.T)              { samplesZeroRejected(t, "serve") }

// The Sec. IV gate cannot be satisfied by checking nothing.
func TestValidateSamplesValidated(t *testing.T) {
	samplesZeroRejected(t, "validate")
	out, code := runCLI(t, "validate", "-samples", "-5")
	if code != 2 || !strings.Contains(out, "-samples must be positive") || strings.Contains(out, "PASS") {
		t.Errorf("validate -samples -5: exit %d, want usage exit 2 and no PASS\n%s", code, out)
	}
}

func TestStudyTargetCIAccepted(t *testing.T) {
	// A valid -target-ci without -samples parses cleanly; -setup exits 0
	// before any campaign runs.
	out, code := runCLI(t, "study", "-target-ci", "0.05", "-setup")
	if code != 0 || !strings.Contains(out, "Table IV") {
		t.Fatalf("study -target-ci 0.05 -setup: exit %d, output:\n%s", code, out)
	}
}

func TestHardenFlagsValidated(t *testing.T) {
	samplesZeroRejected(t, "harden")
	wantUsage(t, "-inputs must be positive", "harden", "-inputs", "0")
	wantUsage(t, "-budget must be non-negative", "harden", "-budget", "-1")
}

func TestServeLeaseTTLStillValidated(t *testing.T) {
	wantUsage(t, "-lease-ttl must be positive", "serve", "-lease-ttl", "-1s")
}

func TestServeAuditFractionValidated(t *testing.T) {
	for _, bad := range []string{"-0.1", "1.5"} {
		wantUsage(t, "-audit-fraction must be in [0,1]", "serve", "-audit-fraction", bad)
	}
}

func TestServeDrainTimeoutValidated(t *testing.T) {
	wantUsage(t, "-drain-timeout must be non-negative", "serve", "-drain-timeout", "-5s")
}

func TestWorkFlagsValidated(t *testing.T) {
	wantUsage(t, "-coordinator is required", "work")
	wantUsage(t, "-poll must be positive", "work", "-coordinator", "http://127.0.0.1:1", "-poll", "0s")
}

func TestUnknownSubcommandExitsTwo(t *testing.T) {
	for _, args := range [][]string{{"nosuchcmd"}, {}} {
		wantUsage(t, "usage:", args...)
	}
}

func TestTable1Runs(t *testing.T) {
	out, code := runCLI(t, "table1")
	if code != 0 || !strings.Contains(out, "Table I") {
		t.Fatalf("table1: exit %d, output:\n%s", code, out)
	}
}

func TestValidatePasses(t *testing.T) {
	out, code := runCLI(t, "validate", "-samples", "20")
	if code != 0 || !strings.Contains(out, "PASS") {
		t.Fatalf("validate -samples 20: exit %d, output:\n%s", code, out)
	}
}

func TestExitCode(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, 0},
		{"plain", errors.New("boom"), 1},
		{"usage", usagef("-x must be positive"), 2},
		{"wrapped usage", fmt.Errorf("serve: %w", usagef("bad")), 2},
		{"partial", fmt.Errorf("yolo: %w (3 experiments quarantined)", errPartial), 3},
		{"interrupted", &campaign.Interrupted{Checkpoint: &campaign.Checkpoint{}, Cause: context.Canceled}, 130},
		{"interrupted by deadline", &campaign.Interrupted{Checkpoint: &campaign.Checkpoint{}, Cause: context.DeadlineExceeded}, 130},
		{"wrapped interrupted", fmt.Errorf("harden: baseline: %w", &campaign.Interrupted{Checkpoint: &campaign.Checkpoint{}, Cause: context.Canceled}), 130},
		{"canceled", fmt.Errorf("distrib: lease: %w", context.Canceled), 130},
	} {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("%s: exitCode(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}

// The fold moved entry points, not options: every subcommand registers
// exactly the (name, default) set its parent binary had — this table is the
// parents' -h output (study, validate, fidelity, fidelityd) at the commit
// before the fold — plus the three profile flags of every campaign
// subcommand, less study's -io-retries and -io-backoff (the retry policy is
// the engine's constants now). A flag added, dropped, renamed or
// re-defaulted fails here.
func TestFlagSurface(t *testing.T) {
	ncpu := strconv.Itoa(runtime.NumCPU())
	want := map[string]map[string]string{
		"table1": {},
		"table2": {"csv": "false"},
		"fig2":   {"k": "4", "t": "16"},
		"census": {},
		"sensitivity": {"act": "0.2", "experiment-timeout": "0s", "failure-budget": "0", "ff": "0.3",
			"net": "yolo", "samples": "200", "target-ci": "0"},
		"harden": {"budget": "0", "inputs": "2", "net": "mobilenet", "o": "", "samples": "20", "seed": "1", "workers": ncpu},
		"study": {"baseline": "false", "checkpoint": "study.checkpoint.json", "checkpoint-interval": "30s",
			"experiment-timeout": "0s", "failure-budget": "0", "fig": "0", "inputs": "4",
			"iters": "200", "manifest": "study.manifest.json", "perlayer": "false",
			"perturbation": "false", "progress": "0s", "protect": "false", "resume": "", "samples": "400",
			"seed": "1", "setup": "false", "shards": "0", "speedup": "false", "target-ci": "0", "workers": ncpu},
		"validate": {"samples": "10000", "seed": "1", "v": "false"},
		"serve": {"addr": ":9090", "audit-fraction": "0", "drain-timeout": "30s", "experiment-timeout": "0s",
			"failure-budget": "0", "inputs": "4", "lease-ttl": "30s", "manifest": "", "net": "mobilenet",
			"perlayer": "false", "precision": "fp16", "progress": "0s", "result": "", "samples": "400",
			"seed": "1", "shards": "0", "state": "", "target-ci": "0", "tolerance": "0.1"},
		"work": {"coordinator": "", "id": "", "poll": "500ms", "progress": "0s"},
	}
	for _, sub := range []string{"sensitivity", "harden", "study", "validate", "serve", "work"} {
		for _, f := range []string{"cpuprofile", "memprofile", "trace"} {
			want[sub][f] = ""
		}
	}
	if len(subcommands) != len(want) {
		t.Errorf("%d subcommands, want %d", len(subcommands), len(want))
	}
	for _, sc := range subcommands {
		fs := flag.NewFlagSet(sc.name, flag.ContinueOnError)
		sc.setup(fs)
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		if w, ok := want[sc.name]; !ok {
			t.Errorf("unexpected subcommand %q", sc.name)
		} else if !reflect.DeepEqual(got, w) {
			t.Errorf("%s flags (name: default)\n got %v\nwant %v", sc.name, got, w)
		}
	}
}

// The profile flags write a CPU and a heap profile pprof reads and a runtime
// trace, and change no byte of what the run prints.
func TestStudyProfileFlags(t *testing.T) {
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to read the profiles with")
	}
	dir := t.TempDir()
	stdout := func(profile ...string) []byte {
		args := []string{"study", "-fig", "6", "-samples", "20", "-inputs", "1", "-workers", "1", "-checkpoint", "", "-manifest", ""}
		out, err := cliCommand(t, dir, append(args, profile...)...).Output()
		if err != nil {
			t.Fatalf("study %v: %v", profile, err)
		}
		return out
	}
	off := stdout()
	if on := stdout("-cpuprofile", "cpu.prof", "-memprofile", "mem.prof", "-trace", "run.trace"); !bytes.Equal(on, off) {
		t.Errorf("stdout with the profile flags differs from without\n on: %s\noff: %s", on, off)
	}
	for _, p := range []string{"cpu.prof", "mem.prof"} {
		if out, err := exec.Command(gotool, "tool", "pprof", "-raw", filepath.Join(dir, p)).CombinedOutput(); err != nil {
			t.Errorf("go tool pprof cannot read %s: %v\n%s", p, err, out)
		}
	}
	if b, err := os.ReadFile(filepath.Join(dir, "run.trace")); err != nil || !bytes.HasPrefix(b, []byte("go 1.")) {
		t.Errorf("run.trace is not a runtime trace (err %v, %d bytes)", err, len(b))
	}
}

// Loopback smoke of the distributed pair through the real binary: serve on
// an ephemeral port, one worker, both exit 0, and the result file is the
// StudyResult an in-process campaign.Study produces for the same spec.
func TestServeWorkLoopback(t *testing.T) {
	dir := t.TempDir()
	srv := cliCommand(t, dir, "serve", "-addr", "127.0.0.1:0", "-net", "mobilenet",
		"-samples", "16", "-inputs", "1", "-result", "r.json")
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill() // a no-op once Wait below has reaped it
	// serve announces its bound address on stderr once it is listening.
	addrs := make(chan string, 1)
	var log bytes.Buffer
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		on := regexp.MustCompile(`serving campaign .* on (\S+)$`)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			log.WriteString(sc.Text() + "\n")
			if m := on.FindStringSubmatch(sc.Text()); m != nil {
				addrs <- m[1]
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrs:
	case <-logDone:
		t.Fatalf("serve exited before listening:\n%s", log.String())
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not announce an address within 30s")
	}

	wrk := cliCommand(t, dir, "work", "-coordinator", "http://"+addr, "-id", "w0")
	if out, err := wrk.CombinedOutput(); err != nil {
		t.Fatalf("work: %v\n%s", err, out)
	}
	<-logDone
	if code := exitStatus(t, srv.Wait()); code != 0 {
		t.Fatalf("serve exit %d:\n%s", code, log.String())
	}

	spec := distrib.CampaignSpec{Workload: "mobilenet", Precision: "fp16", WorkloadSeed: model.StudySeed,
		Tolerance: 0.1, Samples: 16, Inputs: 1, Seed: 1}.Normalize()
	w, err := spec.BuildWorkload()
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Study(context.Background(), accel.NVDLASmall(), w, spec.Options())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "r.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Errorf("r.json differs from the in-process StudyResult\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}

// TestKeyResult2Note: the note under Fig 6 states Key Result 2 only when every
// row's protected FIT is above the ASIL-D FF budget, and otherwise names the
// rows at or under it.
func TestKeyResult2Note(t *testing.T) {
	row := func(net string, total float64) *campaign.StudyResult {
		return &campaign.StudyResult{Workload: net, Precision: "FP16", FITProtected: &fit.Result{Total: total}}
	}
	over := []*campaign.StudyResult{row("inception", 0.9), row("resnet", 0.35), row("mobilenet", 0.21)}
	if got, want := keyResult2Note(over), "note: datapath + local control alone still exceed the 0.2 ASIL-D FF budget (Key Result 2)"; got != want {
		t.Errorf("every row over the budget: %q, want %q", got, want)
	}
	mixed := []*campaign.StudyResult{row("inception", 0.9), row("resnet", 0.2), row("mobilenet", 0.139)}
	got := keyResult2Note(mixed)
	if strings.Contains(got, "still exceed") || !strings.Contains(got, "resnet/FP16 0.2,") || !strings.Contains(got, "mobilenet/FP16 0.139 ") || strings.Contains(got, "inception") {
		t.Errorf("rows at or under the budget: %q, want resnet and mobilenet named, inception not, no Key Result 2 claim", got)
	}
}
