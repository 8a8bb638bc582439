package distrib

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fidelity/internal/campaign"
	"fidelity/internal/telemetry"
)

// chaosSpec is a compact campaign for the chaos matrix: small enough that 6
// profiles × 3 worker counts stay tractable under -race, real enough that
// every protocol path (lease, heartbeat, final, re-issue) gets exercised.
func chaosSpec() CampaignSpec {
	return CampaignSpec{
		Workload:     "mobilenet",
		Precision:    "fp16",
		WorkloadSeed: 42,
		Tolerance:    0.05,
		Samples:      24,
		Inputs:       1,
		Seed:         11,
		Shards:       6,
	}.Normalize()
}

// startChaosWorkers launches n Work loops whose HTTP clients route through
// per-worker seeded ChaosTransports.
func startChaosWorkers(ctx context.Context, t *testing.T, base string, n int, profile chaosProfile, seedBase int64) func() {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = Work(ctx, WorkerOptions{
				BaseURL: base,
				ID:      fmt.Sprintf("chaos-%d", i),
				Poll:    10 * time.Millisecond,
				HTTPClient: &http.Client{
					Transport: newChaosTransport(seedBase+int64(i), profile, nil),
				},
				Telemetry:    telemetry.New(),
				PublishEvery: 4,
			})
		}(i)
	}
	return func() {
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("chaos worker %d: %v", i, err)
			}
		}
	}
}

// TestChaosTransportDifferential is the tentpole proof: under every chaos
// profile — dropped connections, lost replies, latency, duplicated
// deliveries, truncated bodies, bit-corrupted bodies, 5xx bursts — at 1, 2
// and 4 workers, the distributed campaign's StudyResult is byte-identical to
// a clean in-process Study. Every perturbation must land in one of three
// sinks: a transient retry, a lease-table rejection, or a digest-mismatch
// re-send. Anything that leaks past those corrupts bytes, and this test
// catches it.
func TestChaosTransportDifferential(t *testing.T) {
	spec := chaosSpec()
	want := baselineJSON(t, spec)

	profiles := []struct {
		name string
		p    chaosProfile
	}{
		{"drop", chaosProfile{DropBefore: 0.08, DropAfter: 0.05}},
		{"delay", chaosProfile{Delay: 0.4, MaxDelay: 3 * time.Millisecond}},
		{"duplicate", chaosProfile{Duplicate: 0.15}},
		{"truncate", chaosProfile{Truncate: 0.12}},
		{"corrupt", chaosProfile{Corrupt: 0.12}},
		{"5xx", chaosProfile{ServerError: 0.08, BurstLen: 3}},
	}
	for pi, pr := range profiles {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", pr.name, workers), func(t *testing.T) {
				c, err := NewCoordinator(CoordinatorOptions{Spec: spec, LeaseTTL: 600 * time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				// Server-side chaos rides the same profile on its own stream.
				srv := httptest.NewServer(chaosMiddleware(int64(1000*pi+workers), pr.p, c.Handler()))
				defer srv.Close()

				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				wait := startChaosWorkers(ctx, t, srv.URL, workers, pr.p, int64(100*pi+10*workers))
				res, err := c.Result(ctx)
				if err != nil {
					t.Fatal(err)
				}
				wait()

				if got := resultJSON(t, res); string(got) != string(want) {
					t.Errorf("chaos profile %q with %d workers diverged from the clean baseline:\n got %s\nwant %s",
						pr.name, workers, got, want)
				}
			})
		}
	}
}

// TestDistribAuditClean: with AuditFraction 1 every shard is independently
// re-run and byte-compared. Honest workers must pass every audit, the audit
// telemetry must account for every shard, and the result must stay
// byte-identical to the baseline (audit re-runs contribute verification,
// never data).
func TestDistribAuditClean(t *testing.T) {
	spec := chaosSpec()
	want := baselineJSON(t, spec)

	c, err := NewCoordinator(CoordinatorOptions{Spec: spec, LeaseTTL: time.Second, AuditFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	wait := startWorkers(ctx, t, srv.URL, 2, "honest")
	res, err := c.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wait()

	if res.Partial {
		t.Error("clean audited campaign flagged Partial")
	}
	if got := resultJSON(t, res); string(got) != string(want) {
		t.Errorf("audited result differs from baseline:\n got %s\nwant %s", got, want)
	}
	st := c.Status()
	if st.Shards.Done != spec.Shards {
		t.Errorf("shards done = %d, want %d", st.Shards.Done, spec.Shards)
	}
	a := st.Telemetry.Audit
	if a == nil {
		t.Fatal("no audit block in status telemetry")
	}
	if a.Sampled != int64(spec.Shards) || a.Passed != int64(spec.Shards) || a.Failed != 0 || a.Pending != 0 {
		t.Errorf("audit snapshot = %+v, want %d sampled, all passed", a, spec.Shards)
	}
}

// TestDistribAuditFlagsLyingWorker injects a worker that completes a shard
// but reports tampered tallies. The audit re-run on an honest worker must
// produce a different canonical digest, fail the audit, flag the campaign
// Partial, and name the lying worker in the audit telemetry — even though
// the tampered data itself is indistinguishable from a legitimate
// checkpoint.
func TestDistribAuditFlagsLyingWorker(t *testing.T) {
	spec := chaosSpec()

	c, err := NewCoordinator(CoordinatorOptions{Spec: spec, LeaseTTL: 2 * time.Second, AuditFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// The liar takes the first shard, runs it honestly, then tampers with
	// the final checkpoint before reporting it.
	var reply LeaseReply
	postJSON(t, srv.URL+"/v1/lease", LeaseRequest{Worker: "liar"}, &reply)
	if reply.Lease == nil {
		t.Fatal("no lease granted to the liar")
	}
	lease := reply.Lease
	w, err := spec.BuildWorkload()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := campaign.RunShard(context.Background(), c.cfg, w, spec.Options(), campaign.ShardRun{
		Index:  lease.Shard,
		Resume: lease.Resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.Experiments++ // the lie
	var rep ReportReply
	postJSON(t, srv.URL+"/v1/report", ReportRequest{Worker: "liar", LeaseID: lease.ID, Shard: sc, Final: true}, &rep)
	if !rep.OK {
		t.Fatal("tampered final report rejected up front; the audit has nothing to catch")
	}

	// Honest workers finish the rest, including every audit re-run. The
	// liar's shard audit must fail.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	wait := startWorkers(ctx, t, srv.URL, 2, "honest")
	res, err := c.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wait()

	if !res.Partial {
		t.Error("campaign with a failed audit not flagged Partial")
	}
	a := c.Status().Telemetry.Audit
	if a == nil {
		t.Fatal("no audit block in status telemetry")
	}
	if a.Failed != 1 || len(a.Failures) != 1 {
		t.Fatalf("audit snapshot = %+v, want exactly one failure", a)
	}
	f := a.Failures[0]
	if f.Shard != lease.Shard || f.Worker != "liar" {
		t.Errorf("audit failure = %+v, want shard %d blamed on worker liar", f, lease.Shard)
	}
	if f.Sum == f.AuditSum || f.Sum == "" || f.AuditSum == "" {
		t.Errorf("audit failure digests = %q vs %q, want two distinct non-empty sums", f.Sum, f.AuditSum)
	}
}

// TestDistribDrain covers the graceful-shutdown contract at the protocol
// level: once draining, new lease requests are refused with Draining set,
// in-flight reports are still accepted, and the coordinator reaches Idle
// once the outstanding lease lands its final report.
func TestDistribDrain(t *testing.T) {
	spec := chaosSpec()
	c, err := NewCoordinator(CoordinatorOptions{Spec: spec, LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var reply LeaseReply
	postJSON(t, srv.URL+"/v1/lease", LeaseRequest{Worker: "w1"}, &reply)
	if reply.Lease == nil {
		t.Fatal("no lease granted before drain")
	}
	lease := reply.Lease

	c.StartDrain()
	if c.Idle() {
		t.Error("coordinator idle with a live lease")
	}
	var refused LeaseReply
	postJSON(t, srv.URL+"/v1/lease", LeaseRequest{Worker: "w2"}, &refused)
	if refused.Lease != nil || !refused.Draining {
		t.Errorf("lease during drain = %+v, want refused with Draining", refused)
	}

	// The in-flight shard still lands.
	w, err := spec.BuildWorkload()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := campaign.RunShard(context.Background(), c.cfg, w, spec.Options(), campaign.ShardRun{
		Index:  lease.Shard,
		Resume: lease.Resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep ReportReply
	postJSON(t, srv.URL+"/v1/report", ReportRequest{Worker: "w1", LeaseID: lease.ID, Shard: sc, Final: true}, &rep)
	if !rep.OK {
		t.Error("in-flight final report rejected during drain")
	}
	if !c.Idle() {
		t.Error("coordinator not idle after the outstanding lease finalized")
	}
	if st := c.Status(); !st.Draining {
		t.Errorf("status = %+v, want Draining", st)
	}
}
