package distrib

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fidelity/internal/campaign"
	"fidelity/internal/faultmodel"
)

// chaosSpec is testSpec made compact for the audit, drain, integrity and
// sequence tests: small enough for -race, real enough that every protocol
// path (lease, heartbeat, final, re-issue) gets exercised.
func chaosSpec() CampaignSpec {
	s := testSpec()
	s.Samples, s.Inputs, s.Seed, s.Shards = 24, 1, 11, 6
	return s.Normalize()
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
	res := finish(t, srv.URL, c, 2)

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

// stallRunner runs shards on a real runner under a context whose Err, which
// the shard loop calls at every experiment boundary, blocks once, on its
// at-th call, for hold: the shard's goroutine stalls mid-shard, as behind a
// hung experiment, and streams nothing meanwhile.
type stallRunner struct {
	*campaign.ShardRunner
	at    int32
	hold  time.Duration
	calls atomic.Int32
}

func (r *stallRunner) Run(ctx context.Context, run campaign.ShardRun) (campaign.ShardCheckpoint, error) {
	return r.ShardRunner.Run(stallCtx{ctx, r}, run)
}

type stallCtx struct {
	context.Context
	r *stallRunner
}

func (c stallCtx) Err() error {
	if c.r.calls.Add(1) == c.r.at {
		time.Sleep(c.r.hold)
	}
	return c.Context.Err()
}

// TestDistribStallKeepsLease: a shard whose goroutine stalls for four lease
// TTLs keeps its lease, because the worker heartbeats on its own clock, not
// from the shard's experiment boundaries. No lease lapses and the fleet's
// result is campaign.Study's.
func TestDistribStallKeepsLease(t *testing.T) {
	spec := chaosSpec()
	want := baselineJSON(t, spec)
	const ttl = 300 * time.Millisecond
	c, err := NewCoordinator(CoordinatorOptions{Spec: spec, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	w, err := spec.BuildWorkload()
	if err != nil {
		t.Fatal(err)
	}
	runner, err := campaign.NewShardRunner(c.cfg, w, spec.Options())
	if err != nil {
		t.Fatal(err)
	}
	stall := &stallRunner{ShardRunner: runner, at: 3, hold: 4 * ttl}
	wk := &worker{base: srv.URL, id: "w", poll: 10 * time.Millisecond, hc: http.DefaultClient,
		rng: rand.New(faultmodel.NewStreamSource(workerSeed("w"))), runner: stall}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := wk.loop(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := c.Result(ctx)
	if err != nil {
		t.Fatalf("%v (status %+v)", err, c.Status())
	}
	requireSameJSON(t, "StudyResult", want, res)
	if n := stall.calls.Load(); n < stall.at {
		t.Fatalf("the shard loop checked its context %d times, never stalled", n)
	}
	if st := c.Status(); st.Expired != 0 {
		t.Errorf("expired leases = %d, want 0: the heartbeat stopped while the shard stalled", st.Expired)
	}
}
