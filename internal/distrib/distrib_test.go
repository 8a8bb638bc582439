package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/telemetry"
)

// testSpec is a small-but-real campaign: every fault model, two inputs,
// eight relocatable shards.
func testSpec() CampaignSpec {
	return CampaignSpec{
		Workload:     "mobilenet",
		Precision:    "fp16",
		WorkloadSeed: 42,
		Tolerance:    0.05,
		Samples:      48,
		Inputs:       2,
		Seed:         7,
		Shards:       8,
	}.Normalize()
}

// baselineJSON runs the campaign in-process through campaign.Study and
// returns the StudyResult's exact JSON encoding — the bytes every
// distributed configuration must reproduce.
func baselineJSON(t *testing.T, spec CampaignSpec) []byte {
	t.Helper()
	w, err := spec.BuildWorkload()
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Study(context.Background(), accel.NVDLASmall(), w, spec.Options())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func resultJSON(t *testing.T, res *campaign.StudyResult) []byte {
	t.Helper()
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// startWorkers launches n Work loops against base and returns a wait func
// that fails the test on any worker error.
func startWorkers(ctx context.Context, t *testing.T, base string, n int, prefix string) func() {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = Work(ctx, WorkerOptions{
				BaseURL:      base,
				ID:           fmt.Sprintf("%s-%d", prefix, i),
				Poll:         10 * time.Millisecond,
				Telemetry:    telemetry.New(),
				PublishEvery: 4,
			})
		}(i)
	}
	return func() {
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("worker %s-%d: %v", prefix, i, err)
			}
		}
	}
}

// gateFirstLeases sends h's answers to the first n POST /v1/lease requests
// only once h has answered all n of them; everything else passes straight
// through. No worker can then start a shard before n workers hold a lease,
// which each of them gets while at least n shards are pending.
func gateFirstLeases(h http.Handler, n int) http.Handler {
	var arrived, answered atomic.Int64
	all := make(chan struct{})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/lease" || arrived.Add(1) > int64(n) {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if answered.Add(1) == int64(n) {
			close(all)
		}
		select {
		case <-all:
		case <-r.Context().Done():
			return
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	})
}

// TestDistribDeterminism is the fabric's core contract: a campaign executed
// through the coordinator by 1, 2, or 4 workers assembles a StudyResult
// byte-identical to an in-process campaign.Study with the same (Seed,
// Shards).
func TestDistribDeterminism(t *testing.T) {
	spec := testSpec()
	want := baselineJSON(t, spec)

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c, err := NewCoordinator(CoordinatorOptions{Spec: spec, LeaseTTL: 2 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			// Every worker must contribute, so none starts a shard before all
			// of them hold a lease: a campaign of a few milliseconds is
			// otherwise over before the last worker's first request is served.
			srv := httptest.NewServer(gateFirstLeases(c.Handler(), workers))
			defer srv.Close()

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			wait := startWorkers(ctx, t, srv.URL, workers, "w")
			res, err := c.Result(ctx)
			if err != nil {
				t.Fatal(err)
			}
			wait()

			if got := resultJSON(t, res); string(got) != string(want) {
				t.Errorf("distributed result with %d workers differs from in-process baseline:\n got %s\nwant %s",
					workers, got, want)
			}
			st := c.Status()
			if !st.Completed || st.Shards.Done != spec.Shards {
				t.Errorf("terminal status = %+v", st)
			}
			if st.Telemetry.Experiments == 0 || len(st.Telemetry.Sources) != workers {
				t.Errorf("merged telemetry = %+v, want experiments from %d sources", st.Telemetry, workers)
			}

			// The HTTP result endpoint serves the same bytes (modulo the
			// encoder's trailing newline).
			resp, err := http.Get(srv.URL + "/v1/result")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var over *campaign.StudyResult
			if err := json.NewDecoder(resp.Body).Decode(&over); err != nil {
				t.Fatal(err)
			}
			if got := resultJSON(t, over); string(got) != string(want) {
				t.Errorf("/v1/result round-trip differs from baseline")
			}
		})
	}
}

// postJSON is a bare test client for hand-driving the wire protocol.
func postJSON(t *testing.T, url string, in, out any) {
	t.Helper()
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// countdownCtx reports itself cancelled from its left-th Err call on. The
// shard loop checks Err before every experiment, so a run under it stops at a
// fixed experiment boundary.
type countdownCtx struct {
	context.Context
	left atomic.Int32
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestDistribWorkerDeath kills a worker mid-shard: it leases a shard,
// streams partial progress, and vanishes without a final report. The lease
// must expire, the shard re-issue to a healthy worker resuming from the
// streamed checkpoint, and the final result still match the in-process
// baseline byte for byte.
func TestDistribWorkerDeath(t *testing.T) {
	spec := testSpec()
	want := baselineJSON(t, spec)

	const ttl = 250 * time.Millisecond
	c, err := NewCoordinator(CoordinatorOptions{Spec: spec, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// The victim: lease shard 0 by hand, run it part of the way, stream that
	// mid-shard checkpoint as one heartbeat, then die without finalizing — the
	// final report is simply never sent, so the only way the campaign can
	// finish is lease expiry + re-issue. The shard takes about a millisecond,
	// far too short to catch between two ticks of a progress stream, so the
	// victim's context cancels itself after a fixed number of the engine's
	// per-experiment checks instead: deterministic on any scheduler.
	var reply LeaseReply
	postJSON(t, srv.URL+"/v1/lease", LeaseRequest{Worker: "victim"}, &reply)
	if reply.Lease == nil {
		t.Fatal("no lease granted to the victim at campaign start")
	}
	lease := reply.Lease
	w, err := spec.BuildWorkload()
	if err != nil {
		t.Fatal(err)
	}
	vctx := &countdownCtx{Context: context.Background()}
	vctx.left.Store(40)
	mid, runErr := campaign.RunShard(vctx, c.cfg, w, spec.Options(), campaign.ShardRun{
		Index:        lease.Shard,
		Resume:       lease.Resume,
		PublishEvery: 1,
	})
	if !errors.Is(runErr, context.Canceled) || mid.Experiments == 0 || mid.Done {
		t.Fatalf("victim stopped at %d experiments (done=%v, err=%v), want a mid-shard cancellation", mid.Experiments, mid.Done, runErr)
	}
	var hb ReportReply
	postJSON(t, srv.URL+"/v1/report", ReportRequest{Worker: "victim", LeaseID: lease.ID, Shard: mid}, &hb)
	if !hb.OK {
		t.Fatalf("victim's heartbeat refused: %+v", hb)
	}

	// Healthy workers finish the campaign, including the victim's abandoned
	// shard once its lease lapses.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	wait := startWorkers(ctx, t, srv.URL, 2, "healthy")
	res, err := c.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wait()

	if got := resultJSON(t, res); string(got) != string(want) {
		t.Errorf("result after worker death differs from in-process baseline:\n got %s\nwant %s", got, want)
	}
	st := c.Status()
	if st.Expired < 1 {
		t.Errorf("expired leases = %d, want >= 1 (the victim's lease must have lapsed)", st.Expired)
	}
}

// TestDistribCoordinatorRestart stops the coordinator mid-campaign and
// brings up a replacement on the same persisted state file. The replacement
// must resume from the collected checkpoints (not from scratch), honor the
// in-flight leases, and converge to the byte-identical baseline result.
func TestDistribCoordinatorRestart(t *testing.T) {
	spec := testSpec()
	want := baselineJSON(t, spec)
	if got := resultJSON(t, runWithRestart(t, spec, "w")); string(got) != string(want) {
		t.Errorf("result after coordinator restart differs from in-process baseline:\n got %s\nwant %s", got, want)
	}
}

// runWithRestart runs spec on two workers against a coordinator that goes
// down at its restartReport-th accepted report of progress — a point in the
// campaign, not a moment in time (restartProxy) — and returns what a
// replacement loaded from the first one's state file assembles after the
// outage.
func runWithRestart(t *testing.T, spec CampaignSpec, prefix string) *campaign.StudyResult {
	t.Helper()
	const restartReport = 3
	copts := CoordinatorOptions{Spec: spec, LeaseTTL: 2 * time.Second, StatePath: filepath.Join(t.TempDir(), "coordinator.json")}
	c1, err := NewCoordinator(copts)
	if err != nil {
		t.Fatal(err)
	}
	down := make(chan struct{})
	proxy := &restartProxy{t: t, first: c1, h: c1.Handler(), n: restartReport, restart: func() http.Handler {
		close(down)
		return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
			http.Error(rw, "coordinator restarting", http.StatusServiceUnavailable)
		})
	}}
	srv := httptest.NewServer(proxy)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	wait := startWorkers(ctx, t, srv.URL, 2, prefix)
	finished := make(chan struct{})
	go func() {
		c1.Result(ctx)
		close(finished)
	}()
	select {
	case <-down:
	case <-finished:
		t.Fatalf("the campaign finished under the first coordinator before its report %d", restartReport)
	}

	// The replacement loads the persisted lease table and checkpoints...
	c2, err := NewCoordinator(copts)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Status(); st.Experiments == 0 {
		t.Error("restarted coordinator resumed with zero experiments; persisted checkpoints were lost")
	}
	// ...and the workers, which retried through the outage, finish against it.
	proxy.set(c2.Handler())
	res, err := c2.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wait()
	return res
}

// restartProxy serves through first until first has accepted its n-th report
// of progress, and from inside that report's handler, once first has answered
// it, sends every later request to what restart returns (then to what set
// installs). Reports to first are served one at a time, so the swap sees first
// as that report left it — with shards still to finish, or the test fails: a
// restart after the campaign ended tests nothing.
type restartProxy struct {
	t       *testing.T
	first   *Coordinator
	h       http.Handler // first's
	n       int
	restart func() http.Handler

	mu       sync.Mutex
	accepted int
	next     http.Handler
}

func (p *restartProxy) set(h http.Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.next = h
}

func (p *restartProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	if next := p.next; next != nil || r.URL.Path != "/v1/report" {
		p.mu.Unlock()
		if next == nil {
			next = p.h
		}
		next.ServeHTTP(w, r)
		return
	}
	defer p.mu.Unlock()
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, r)
	var reply ReportReply
	if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &reply) == nil && reply.OK {
		if st := p.first.Status(); st.Experiments > 0 {
			if p.accepted++; p.accepted == p.n {
				if st.Completed || st.Shards.Done == st.Spec.Shards {
					p.t.Errorf("restart at report %d: the campaign had finished (%+v)", p.n, st.Shards)
				}
				p.next = p.restart()
			}
		}
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

// TestCampaignSpecValidate covers the spec's input rejection.
func TestCampaignSpecValidate(t *testing.T) {
	ok := testSpec()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*CampaignSpec)
	}{
		{"no workload", func(s *CampaignSpec) { s.Workload = "" }},
		{"zero samples", func(s *CampaignSpec) { s.Samples = 0 }},
		{"negative samples", func(s *CampaignSpec) { s.Samples = -4 }},
		{"zero inputs", func(s *CampaignSpec) { s.Inputs = 0 }},
		{"negative shards", func(s *CampaignSpec) { s.Shards = -1 }},
		{"bad precision", func(s *CampaignSpec) { s.Precision = "fp12" }},
	}
	for _, tc := range cases {
		s := testSpec()
		tc.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: spec accepted", tc.name)
		}
	}
}

// fixedTable is a lease table over the fresh schedule of an n-shard
// fixed-count campaign.
func fixedTable(n int, ttl time.Duration) *leaseTable {
	opts := campaign.StudyOptions{Samples: 1, Inputs: 1, Shards: n}
	return newLeaseTable(campaign.NewSchedule(nil, opts, nil, nil), n, ttl)
}

// TestLeaseTableStaleReport: once a lease expires and the shard is re-issued,
// the original holder's reports are rejected so a resurrected worker cannot
// clobber the shard's new owner.
func TestLeaseTableStaleReport(t *testing.T) {
	now := time.Unix(1000, 0)
	tab := fixedTable(2, time.Second)

	l1 := tab.acquire("a", now)
	if l1 == nil || l1.Shard != 0 {
		t.Fatalf("first acquire = %+v", l1)
	}
	// Heartbeats extend the lease.
	sc := campaign.NewShardCheckpoint(0)
	sc.Experiments = 5
	if !tab.report(&ReportRequest{Worker: "a", LeaseID: l1.ID, Shard: sc}, now.Add(500*time.Millisecond)) {
		t.Fatal("live heartbeat rejected")
	}
	// Past the extended deadline the lease lapses and the shard re-issues,
	// resuming from the streamed checkpoint.
	l2 := tab.acquire("b", now.Add(3*time.Second))
	if l2 == nil || l2.Shard != 0 {
		t.Fatalf("re-acquire after expiry = %+v", l2)
	}
	if l2.Resume == nil || l2.Resume.Experiments != 5 {
		t.Errorf("re-issued lease resume = %+v, want the streamed checkpoint", l2.Resume)
	}
	if tab.expired != 1 {
		t.Errorf("expired = %d, want 1", tab.expired)
	}
	// The resurrected original holder is told no.
	if tab.report(&ReportRequest{Worker: "a", LeaseID: l1.ID, Shard: sc, Final: true}, now.Add(3*time.Second)) {
		t.Error("stale lease report accepted")
	}
	if tab.shards[0].lease != l2.ID || tab.leases[l2.ID] == nil {
		t.Errorf("shard 0 = %+v after stale report, want lease %s live", tab.shards[0], l2.ID)
	}
}

// TestLeaseTableExpiredFinalReport: a worker whose lease expired mid-report
// is rejected even before the shard is re-issued — expiry alone invalidates
// the lease, and the shard's streamed checkpoint survives for the next
// holder.
func TestLeaseTableExpiredFinalReport(t *testing.T) {
	now := time.Unix(1000, 0)
	tab := fixedTable(1, time.Second)

	l := tab.acquire("a", now)
	if l == nil {
		t.Fatal("no lease granted")
	}
	sc := campaign.NewShardCheckpoint(0)
	sc.Experiments = 3
	if !tab.report(&ReportRequest{Worker: "a", LeaseID: l.ID, Shard: sc}, now.Add(100*time.Millisecond)) {
		t.Fatal("live heartbeat rejected")
	}
	// The final report arrives after the (extended) deadline: rejected, the
	// shard returns to pending with its last accepted checkpoint intact.
	late := now.Add(5 * time.Second)
	fin := sc
	fin.Done = true
	fin.Experiments = 9
	if tab.report(&ReportRequest{Worker: "a", LeaseID: l.ID, Shard: fin, Final: true}, late) {
		t.Error("final report against an expired lease accepted")
	}
	if e := &tab.shards[0]; e.lease != "" || len(tab.leases) != 0 {
		t.Errorf("shard 0 = %+v with leases %v after expiry, want no lease", e, tab.leases)
	}
	if ck := tab.sched.Checkpoint(0); ck == nil || ck.Experiments != 3 || ck.Done {
		t.Errorf("shard checkpoint = %+v, want the last in-lease heartbeat", ck)
	}
	if c, _ := tab.counts(); c.Done != 0 || c.Pending != 1 {
		t.Errorf("counts = %+v after rejected expired final", c)
	}
}

// TestLeaseTableDuplicateFinalReport: re-posting an already-accepted final
// report (a lost-reply retry, or a duplicated delivery) must be rejected
// without disturbing the shard's terminal accounting — the at-most-once
// contract that makes chaos transports survivable.
func TestLeaseTableDuplicateFinalReport(t *testing.T) {
	now := time.Unix(1000, 0)
	tab := fixedTable(1, time.Second)

	l := tab.acquire("a", now)
	if l == nil {
		t.Fatal("no lease granted")
	}
	fin := campaign.NewShardCheckpoint(0)
	fin.Done = true
	fin.Experiments = 7
	req := ReportRequest{Worker: "a", LeaseID: l.ID, Shard: fin, Final: true}
	if !tab.report(&req, now.Add(100*time.Millisecond)) {
		t.Fatal("first final report rejected")
	}
	if !tab.terminal() {
		t.Fatal("table not terminal after the final report")
	}
	sumBefore := tab.shards[0].sum

	// The duplicate — identical bytes, same lease — must bounce.
	if tab.report(&req, now.Add(200*time.Millisecond)) {
		t.Error("duplicate final report accepted")
	}
	// And a tampered duplicate must not overwrite the accepted state.
	forged := req
	forged.Shard.Experiments = 99
	if tab.report(&forged, now.Add(300*time.Millisecond)) {
		t.Error("forged duplicate final report accepted")
	}
	if ck := tab.sched.Checkpoint(0); ck.Experiments != 7 || tab.shards[0].sum != sumBefore {
		t.Errorf("shard accounting disturbed by duplicates: ckpt=%+v sum changed=%v", ck, tab.shards[0].sum != sumBefore)
	}
	if c, _ := tab.counts(); c.Done != 1 {
		t.Errorf("counts = %+v, want one done shard", c)
	}
	if tab.expired != 0 {
		t.Errorf("expired = %d, duplicates must not count as expiries", tab.expired)
	}
}

// TestLeaseTableAuditSelfFallback: audit leases prefer an independent
// witness, but a single-worker deployment must not deadlock — after a full
// TTL with no other taker, the primary worker may audit its own shard.
func TestLeaseTableAuditSelfFallback(t *testing.T) {
	now := time.Unix(1000, 0)
	tab := fixedTable(1, time.Second)
	tab.auditFor = func(int) bool { return true }

	l := tab.acquire("solo", now)
	if l == nil {
		t.Fatal("no lease granted")
	}
	fin := campaign.NewShardCheckpoint(0)
	fin.Done = true
	fin.Experiments = 7
	if !tab.report(&ReportRequest{Worker: "solo", LeaseID: l.ID, Shard: fin, Final: true}, now) {
		t.Fatal("final report rejected")
	}
	if tab.terminal() {
		t.Fatal("table terminal with an unresolved audit")
	}
	// Immediately after completion the producing worker is refused its own
	// audit...
	if al := tab.acquire("solo", now.Add(10*time.Millisecond)); al != nil {
		t.Fatalf("self-audit granted immediately: %+v", al)
	}
	// ...but another worker gets it at once...
	al := tab.acquire("other", now.Add(20*time.Millisecond))
	if al == nil || !al.Audit || al.Shard != 0 {
		t.Fatalf("independent audit lease = %+v", al)
	}
	// ...and once that lapses and a full TTL has passed, the producer may
	// self-audit rather than stall the campaign forever.
	sl := tab.acquire("solo", now.Add(3*time.Second))
	if sl == nil || !sl.Audit {
		t.Fatalf("self-audit fallback after TTL = %+v", sl)
	}
	if !tab.report(&ReportRequest{Worker: "solo", LeaseID: sl.ID, Shard: fin, Final: true}, now.Add(3*time.Second)) {
		t.Fatal("audit final report rejected")
	}
	if !tab.terminal() || tab.shards[0].audit != auditPassed {
		t.Errorf("audit state = %v, want passed and terminal", tab.shards[0].audit)
	}
}
