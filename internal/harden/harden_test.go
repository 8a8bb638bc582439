package harden

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/dataset"
	"fidelity/internal/faultmodel"
	"fidelity/internal/fit"
	"fidelity/internal/inject"
	"fidelity/internal/model"
	"fidelity/internal/nn"
	"fidelity/internal/numerics"
	"fidelity/internal/telemetry"
)

// buildWorkload returns a fresh deterministic zoo workload.
func buildWorkload(t *testing.T, name string) *model.Workload {
	t.Helper()
	w, err := model.Build(name, numerics.FP16, 42)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// hardenedWorkload profiles w's golden envelopes over the campaign input
// set and returns a fresh copy with the clamps installed, plus the config.
func hardenedWorkload(t *testing.T, name string, inputs int) (*model.Workload, Config) {
	t.Helper()
	w := buildWorkload(t, name)
	prof, err := Profile(w, inputs)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := RangeRestriction(prof, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hw := buildWorkload(t, name)
	if err := cfg.Apply(hw.Net); err != nil {
		t.Fatal(err)
	}
	return hw, cfg
}

// TestProfileEnvelopeIdentity is the fixed-point property the whole design
// rests on: clamps derived from golden envelopes are the identity on golden
// forward passes, so the hardened network's clean behavior is bit-identical
// to the unhardened one.
func TestProfileEnvelopeIdentity(t *testing.T) {
	const inputs = 2
	for _, name := range []string{"mobilenet", "inception"} {
		plain := buildWorkload(t, name)
		hw, cfg := hardenedWorkload(t, name, inputs)
		if !hw.Net.Hardened() {
			t.Fatalf("%s: clamps did not install", name)
		}
		if len(cfg.Clamps) == 0 {
			t.Fatalf("%s: empty clamp set", name)
		}
		for idx := 0; idx < inputs; idx++ {
			x, err := dataset.Sample(plain.Dataset, idx)
			if err != nil {
				t.Fatal(err)
			}
			want := plain.Net.Forward(x).Data()
			got := hw.Net.Forward(x).Data()
			if len(want) != len(got) {
				t.Fatalf("%s input %d: output sizes differ", name, idx)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s input %d: hardened golden differs at %d: %v != %v",
						name, idx, i, got[i], want[i])
				}
			}
		}
	}
}

// TestClampSaturation: a deliberately shrunken envelope must saturate
// out-of-range values and count them, and every output value must land
// inside the bound.
func TestClampSaturation(t *testing.T) {
	w := buildWorkload(t, "mobilenet")
	x, err := dataset.Sample(w.Dataset, 0)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Halve the first site's envelope so golden values saturate.
	tight := prof[0]
	tight.Lo, tight.Hi = tight.Lo/2, tight.Hi/2
	hw := buildWorkload(t, "mobilenet")
	if err := (&Config{Clamps: []Envelope{tight}}).Apply(hw.Net); err != nil {
		t.Fatal(err)
	}
	ctx := nn.NewContext(nil)
	hw.Net.ForwardWithContext(x, ctx)
	hs := ctx.HardenStats()
	if hs.ClampApplications == 0 {
		t.Fatal("clamped site executed but ClampApplications == 0")
	}
	if hs.Saturated == 0 {
		t.Fatal("shrunken envelope saturated nothing — profile range was not exercised")
	}
}

// TestConfigFingerprint: zero config is the empty fingerprint (legacy
// checkpoint compatibility); non-zero configs digest canonically
// (order-insensitive) and every field participates.
func TestConfigFingerprint(t *testing.T) {
	var zero Config
	fp, err := zero.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != "" {
		t.Fatalf("zero config fingerprint = %q, want empty", fp)
	}

	a := Config{Clamps: []Envelope{{Site: "a", Lo: -1, Hi: 1}, {Site: "b", Lo: 0, Hi: 2}}}
	b := Config{Clamps: []Envelope{{Site: "b", Lo: 0, Hi: 2}, {Site: "a", Lo: -1, Hi: 1}}}
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa == "" || fa != fb {
		t.Fatalf("clamp order changed the fingerprint: %q vs %q", fa, fb)
	}
	c := a
	c.ProtectGlobal = true
	fc, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fc == fa {
		t.Fatal("ProtectGlobal did not change the fingerprint")
	}
	d := a
	d.Duplicated = []string{"conv#0"}
	fd, err := d.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fd == fa || fd == fc {
		t.Fatal("Duplicated did not change the fingerprint")
	}
}

// TestHardenedCampaignWorkerDeterminism: the hardened campaign's StudyResult
// must be byte-identical across {1, 2, 4} workers, and every experiment on
// the clamped network must come out the same on the replay engine and on the
// plain-forward oracle — clamps live inside the replay-aware forward path, so
// none of the engine's determinism contracts may erode. Run with -race.
func TestHardenedCampaignWorkerDeterminism(t *testing.T) {
	cfg := accel.NVDLASmall()
	hw, _ := hardenedWorkload(t, "mobilenet", 2)
	base := campaign.StudyOptions{Samples: 60, Inputs: 2, Tolerance: 0.1, Seed: 9}
	run := func(workers int) []byte {
		opts := base
		opts.Workers = workers
		res, err := campaign.Study(context.Background(), cfg, hw, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		enc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	ref := run(1)
	for _, workers := range []int{2, 4} {
		if got := run(workers); string(got) != string(ref) {
			t.Errorf("workers=%d: hardened StudyResult bytes differ from workers=1", workers)
		}
	}

	// Replay vs oracle, experiment by experiment: two injectors over the same
	// clamped network and input, one prepared from a golden trace with
	// activations (replay, region sweeps) and one without (plain forward),
	// reseeded identically before every run. Outcomes and saturation counts
	// must agree exactly, flat and pinned (only the number of bounds-checked
	// executions differs: replay skips the clean ones, on which the clamp is
	// the identity), and the sweep must actually saturate.
	models, err := faultmodel.Derive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x, err := dataset.Sample(hw.Dataset, 0)
	if err != nil {
		t.Fatal(err)
	}
	var injs [2]*inject.Injector
	for i, withReplay := range []bool{true, false} {
		s, err := faultmodel.NewSampler(models, 0)
		if err != nil {
			t.Fatal(err)
		}
		g, err := inject.TraceGolden(hw, x, withReplay)
		if err != nil {
			t.Fatal(err)
		}
		injs[i] = inject.New(hw, s)
		if err := injs[i].PrepareGolden(g); err != nil {
			t.Fatal(err)
		}
	}
	var saturated int64
	for _, id := range faultmodel.AllIDs() {
		for seed := int64(0); seed < 40; seed++ {
			var rs [2]inject.Result
			for i, inj := range injs {
				inj.Sampler.Reseed(seed)
				if pinned := int(seed) % (2 * inj.Executions()); pinned < inj.Executions() {
					rs[i], err = inj.RunAt(context.Background(), pinned, id, 0.1)
				} else {
					rs[i], err = inj.Run(context.Background(), id, 0.1)
				}
				if err != nil {
					t.Fatalf("%s seed %d: %v", id, seed, err)
				}
			}
			replay, oracle := rs[0], rs[1]
			if id != faultmodel.GlobalControl && (!replay.Replayed || oracle.Replayed) {
				t.Fatalf("%s seed %d: Replayed %v / %v, want replay-only", id, seed, replay.Replayed, oracle.Replayed)
			}
			if id != faultmodel.GlobalControl {
				if replay.Harden.Saturated != oracle.Harden.Saturated {
					t.Fatalf("%s seed %d: replay saturated %d values, oracle %d",
						id, seed, replay.Harden.Saturated, oracle.Harden.Saturated)
				}
				saturated += oracle.Harden.Saturated
			}
			replay.Replay, replay.Replayed, replay.Harden, oracle.Harden = nn.ReplayStats{}, false, nn.HardenStats{}, nn.HardenStats{}
			if !reflect.DeepEqual(replay, oracle) {
				t.Fatalf("%s seed %d: replay %+v != oracle %+v", id, seed, replay, oracle)
			}
		}
	}
	if saturated == 0 {
		t.Error("no experiment saturated a clamp: the replay-vs-oracle leg never exercised the envelope")
	}
}

// TestHardenedInterruptResume: a hardened campaign interrupted mid-flight
// and resumed from its checkpoint reproduces the uninterrupted result
// byte-for-byte, and its checkpoint carries the fingerprint of the installed
// clamps, so a campaign on the unhardened or a differently clamped network
// refuses to resume from it.
func TestHardenedInterruptResume(t *testing.T) {
	cfg := accel.NVDLASmall()
	hw, _ := hardenedWorkload(t, "mobilenet", 2)
	base := campaign.StudyOptions{Samples: 240, Inputs: 2, Tolerance: 0.1, Seed: 11, Workers: 4}
	baseline, err := campaign.Study(context.Background(), cfg, hw, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt mid-flight from inside the campaign, a fixed number of
	// experiments in, however fast they run (cancelAfter).
	ckptPath := filepath.Join(t.TempDir(), "harden.checkpoint.json")
	ctx := newCancelAfter(300)
	defer ctx.cancel()
	opts := base
	opts.CheckpointPath = ckptPath
	_, err = campaign.Study(ctx, cfg, hw, opts)
	var intr *campaign.Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("interrupted hardened study returned %v, want *Interrupted", err)
	}
	cp := intr.Checkpoint
	if fp := hw.Net.ClampFingerprint(); fp == "" || cp.Hardening != fp {
		t.Fatalf("checkpoint hardening = %q, want the clamps' fingerprint %q", cp.Hardening, fp)
	}
	if cp.Experiments <= 0 || cp.Experiments >= baseline.Experiments {
		t.Fatalf("checkpoint holds %d experiments, want mid-campaign (0, %d)", cp.Experiments, baseline.Experiments)
	}

	// The hardened checkpoint must not match the unhardened network or one
	// clamped to other envelopes (profiled over one input, not two).
	if cp.Matches(cfg, buildWorkload(t, "mobilenet"), base) {
		t.Error("hardened checkpoint matched the unhardened network")
	}
	if other, _ := hardenedWorkload(t, "mobilenet", 1); cp.Matches(cfg, other, base) {
		t.Error("hardened checkpoint matched a differently clamped network")
	}
	if !cp.Matches(cfg, hw, base) {
		t.Error("hardened checkpoint did not match its own options")
	}

	// The resume runs only what the checkpoint had not done: one that
	// restarted from zero would reach the same bytes, running everything.
	resume := base
	resume.Resume = cp
	resume.Telemetry = telemetry.New()
	res, err := campaign.Study(context.Background(), cfg, hw, resume)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("resumed hardened StudyResult bytes differ from uninterrupted run")
	}
	if ran, rest := resume.Telemetry.Experiments(), int64(baseline.Experiments-cp.Experiments); ran != rest {
		t.Errorf("resume ran %d experiments, want the %d the checkpoint had not done", ran, rest)
	}
}

// TestClampedStudyIgnoresUnclampedCheckpoint: the clamps installed on the
// network are the campaign's hardening identity. A study on a clamped network
// offered an unclamped run's interrupt checkpoint, under the same options,
// must run from scratch and equal a clean clamped study byte for byte. The
// cut holds over half the campaign, where the clamps change outcomes, so a
// study that resumed it would differ.
func TestClampedStudyIgnoresUnclampedCheckpoint(t *testing.T) {
	cfg := accel.NVDLASmall()
	hw, _ := hardenedWorkload(t, "mobilenet", 2)
	base := campaign.StudyOptions{Samples: 240, Inputs: 2, Tolerance: 0.1, Seed: 11, Workers: 1}
	ctx := newCancelAfter(3000)
	defer ctx.cancel()
	_, err := campaign.Study(ctx, cfg, buildWorkload(t, "mobilenet"), base)
	var intr *campaign.Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("interrupted unclamped study returned %v, want *Interrupted", err)
	}

	clean, err := campaign.Study(context.Background(), cfg, hw, base)
	if err != nil {
		t.Fatal(err)
	}
	offered := base
	offered.Resume = intr.Checkpoint
	resumed, err := campaign.Study(context.Background(), cfg, hw, offered)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("a clamped study resumed an unclamped run's checkpoint: its bytes differ from a clean clamped study")
	}
}

// cancelAfter is a context that cancels itself on the n-th call of its Err.
// The campaign engine asks before every experiment, on the goroutine about to
// run it, so the cancel comes from inside the campaign, at the same point of
// it whatever the machine's speed — no goroutine polls progress beside it.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func newCancelAfter(n int64) *cancelAfter {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cancelAfter{Context: ctx, cancel: cancel}
	c.left.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestHardenTelemetry: hardened campaigns must surface the harden snapshot
// block (clamp applications; saturations only under injected faults), and
// unhardened campaigns must not.
func TestHardenTelemetry(t *testing.T) {
	cfg := accel.NVDLASmall()
	hw, _ := hardenedWorkload(t, "mobilenet", 1)
	tel := telemetry.New()
	_, err := campaign.Study(context.Background(), cfg, hw, campaign.StudyOptions{
		Samples: 20, Inputs: 1, Tolerance: 0.1, Seed: 5, Workers: 2, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	if snap.Harden == nil {
		t.Fatal("hardened campaign snapshot has no harden block")
	}
	if snap.Harden.ClampApplications == 0 {
		t.Error("hardened campaign recorded no clamp applications")
	}

	plainTel := telemetry.New()
	w := buildWorkload(t, "mobilenet")
	_, err = campaign.Study(context.Background(), cfg, w, campaign.StudyOptions{
		Samples: 20, Inputs: 1, Tolerance: 0.1, Seed: 5, Workers: 2, Telemetry: plainTel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plainTel.Snapshot().Harden != nil {
		t.Error("unhardened campaign snapshot carries a harden block")
	}
}

// TestRecommendationSearch: the search must include global-control
// protection exactly when the measured global floor exceeds the budget, and
// return a config whose modeled residual meets the budget when one exists.
func TestRecommendationSearch(t *testing.T) {
	cfg := accel.NVDLASmall()
	hw, hcfg := hardenedWorkload(t, "mobilenet", 1)
	study, err := campaign.Study(context.Background(), cfg, hw, campaign.StudyOptions{
		Samples: 12, Inputs: 1, Tolerance: 0.1, Seed: 7, Workers: 2, PerLayer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := RecommendationSearch(cfg, study, 0, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.ProtectGlobal {
		t.Error("recommendation left global-control FFs unprotected, but their floor exceeds the FF budget")
	}
	dup := make(map[string]bool, len(out.Duplicated))
	for _, l := range out.Duplicated {
		dup[l] = true
	}
	res, err := fit.ComputeProtected(cfg, study.RawPerFF, fit.DuplicateLayers(study.Layers, dup))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total >= fit.FFBudget() {
		t.Errorf("recommended config's modeled residual %.4f misses the FF budget %.4f", res.Total, fit.FFBudget())
	}
}

// TestPipelineRun: the closed loop end to end on the cheapest workload, with
// determinism across repeat runs. The options leave PerLayer off: Run turns
// it on for both campaigns, and reports through the options' telemetry.
func TestPipelineRun(t *testing.T) {
	tel := telemetry.New()
	opts := Options{
		Net: "mobilenet", Precision: numerics.FP16,
		Study: campaign.StudyOptions{Samples: 8, Inputs: 1, Tolerance: 0.1, Seed: 3, Workers: 2, Telemetry: tel},
	}
	rep, err := Run(context.Background(), accel.NVDLASmall(), opts)
	if err != nil {
		t.Fatal(err)
	}
	perLayer := opts.Study
	perLayer.PerLayer, perLayer.Telemetry = true, nil
	before, err := campaign.Study(context.Background(), accel.NVDLASmall(), buildWorkload(t, opts.Net), perLayer)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Before.Experiments != before.Experiments || rep.Before.FIT != before.FIT.Total {
		t.Errorf("baseline campaign ran %d experiments for FIT %g, want the per-layer study's %d for %g",
			rep.Before.Experiments, rep.Before.FIT, before.Experiments, before.FIT.Total)
	}
	if rep.After.Experiments != before.Experiments {
		t.Errorf("hardened campaign ran %d experiments, want the baseline's %d (the same campaign shape)",
			rep.After.Experiments, before.Experiments)
	}
	if h := tel.Snapshot().Harden; h == nil || h.DuplicatedSites != int64(len(rep.Config.Duplicated)) {
		t.Errorf("telemetry harden block %+v, want %d duplicated sites", h, len(rep.Config.Duplicated))
	}
	if rep.Fingerprint == "" {
		t.Error("pipeline produced an empty hardening fingerprint")
	}
	if len(rep.Config.Clamps) == 0 {
		t.Error("pipeline recommended no clamps")
	}
	if rep.HardenedFIT > rep.After.FIT {
		t.Errorf("hardened FIT %.4f exceeds the measured clamped FIT %.4f", rep.HardenedFIT, rep.After.FIT)
	}
	if !rep.MeetsASILD {
		t.Errorf("recommended config misses the budget: hardened FIT %.4f vs %.4f", rep.HardenedFIT, rep.BudgetFIT)
	}

	again, err := Run(context.Background(), accel.NVDLASmall(), opts)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Error("pipeline report is not deterministic across identical runs")
	}
}

// TestRunRejectsCheckpointing: Run refuses the campaign options its two
// campaigns cannot share, before it runs either.
func TestRunRejectsCheckpointing(t *testing.T) {
	for name, set := range map[string]func(*campaign.StudyOptions){
		"checkpoint-path": func(o *campaign.StudyOptions) { o.CheckpointPath = filepath.Join(t.TempDir(), "c.json") },
		"resume":          func(o *campaign.StudyOptions) { o.Resume = &campaign.Checkpoint{} },
		"target-ci":       func(o *campaign.StudyOptions) { o.Samples, o.TargetCI = 0, 0.1 },
	} {
		opts := Options{Net: "mobilenet", Precision: numerics.FP16, Study: campaign.StudyOptions{Samples: 8, Inputs: 1}}
		set(&opts.Study)
		if _, err := Run(context.Background(), accel.NVDLASmall(), opts); err == nil || !strings.Contains(err.Error(), "may not set") {
			t.Errorf("%s: Run returned %v, want the options rejected", name, err)
		}
	}
}
