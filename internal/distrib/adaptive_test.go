package distrib

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"
)

// The distributed adaptive-sampling suite: the coordinator is the campaign's
// planner, shards replay the round history it records in their checkpoints,
// and the assembled result must stay byte-identical to an in-process adaptive
// campaign.Study — across worker counts, lease re-issue, and coordinator
// restarts mid-round.

// adaptiveSpec is testSpec's adaptive twin: the fixed sample count replaced
// by a target half-width.
func adaptiveSpec() CampaignSpec {
	s := testSpec()
	s.Samples = 0
	s.TargetCI = 0.15
	return s.Normalize()
}

// TestDistribAdaptiveDeterminism: an adaptive campaign run through the
// coordinator by 1, 2, or 4 workers assembles a StudyResult byte-identical to
// an in-process adaptive campaign.Study with the same (Seed, Shards,
// TargetCI).
func TestDistribAdaptiveDeterminism(t *testing.T) {
	spec := adaptiveSpec()
	want := baselineJSON(t, spec)

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c, err := NewCoordinator(CoordinatorOptions{Spec: spec, LeaseTTL: 2 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(c.Handler())
			defer srv.Close()

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			wait := startWorkers(ctx, t, srv.URL, workers, "aw")
			res, err := c.Result(ctx)
			if err != nil {
				t.Fatalf("%v (status %+v)", err, c.Status())
			}
			wait()

			if got := resultJSON(t, res); string(got) != string(want) {
				t.Errorf("distributed adaptive result with %d workers differs from in-process baseline:\n got %s\nwant %s",
					workers, got, want)
			}
			st := c.Status()
			if !st.Completed || st.Shards.Done != spec.Shards || st.Shards.Waiting != 0 {
				t.Errorf("terminal status = %+v", st)
			}
			if st.Telemetry.Strata == nil || st.Telemetry.Strata.Rounds < 1 {
				t.Errorf("terminal status carries no strata telemetry: %+v", st.Telemetry.Strata)
			}
		})
	}
}

// TestDistribAdaptiveCoordinatorRestart: killing the coordinator mid-campaign
// (with rounds in flight) and restarting it from its persisted v3 state must
// still assemble the byte-identical baseline — the round history rides in the
// shard checkpoints, so the new coordinator resumes planning where the old
// one stopped.
func TestDistribAdaptiveCoordinatorRestart(t *testing.T) {
	spec := adaptiveSpec()
	want := baselineJSON(t, spec)
	if got := resultJSON(t, runWithRestart(t, spec, "rw")); string(got) != string(want) {
		t.Errorf("adaptive result after coordinator restart differs from baseline:\n got %s\nwant %s", got, want)
	}
}

// TestDistribAdaptiveAudit: with AuditFraction 1 every completed adaptive
// shard is re-executed by a second worker from an empty-tally resume state
// carrying the full round history; the replays must digest-match the
// coordinator-finalized primaries, and the campaign must not be Partial.
func TestDistribAdaptiveAudit(t *testing.T) {
	spec := adaptiveSpec()
	want := baselineJSON(t, spec)

	c, err := NewCoordinator(CoordinatorOptions{Spec: spec, LeaseTTL: 2 * time.Second, AuditFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	wait := startWorkers(ctx, t, srv.URL, 3, "audw")
	res, err := c.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wait()

	if res.Partial {
		t.Error("fully audited adaptive campaign came back Partial")
	}
	if got := resultJSON(t, res); string(got) != string(want) {
		t.Errorf("audited adaptive result differs from baseline:\n got %s\nwant %s", got, want)
	}
	st := c.Status()
	if aud := st.Telemetry.Audit; aud == nil || aud.Passed != int64(spec.Shards) || aud.Failed != 0 {
		t.Errorf("audit summary = %+v, want %d passed", st.Telemetry.Audit, spec.Shards)
	}
}

// TestDistribAdaptiveSpecValidate: the wire-level mutual exclusion and range
// checks on TargetCI.
func TestDistribAdaptiveSpecValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*CampaignSpec)
	}{
		{"both samples and target_ci", func(s *CampaignSpec) { s.TargetCI = 0.1 }},
		{"target_ci too wide", func(s *CampaignSpec) { s.Samples = 0; s.TargetCI = 0.7 }},
		{"negative target_ci", func(s *CampaignSpec) { s.TargetCI = -0.1 }},
	}
	for _, tc := range cases {
		spec := testSpec()
		tc.mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: spec %+v validated", tc.name, spec)
		}
	}
	ok := adaptiveSpec()
	if err := ok.Validate(); err != nil {
		t.Errorf("adaptive spec rejected: %v", err)
	}
}
