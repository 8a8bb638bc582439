package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
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
	return CampaignSpec{Workload: "mobilenet", Precision: "fp16", WorkloadSeed: 42, Tolerance: 0.05,
		Samples: 48, Inputs: 2, Seed: 7, Shards: 8}.Normalize()
}

// adaptiveSpec is testSpec's adaptive twin: the fixed sample count replaced
// by a target half-width.
func adaptiveSpec() CampaignSpec {
	s := testSpec()
	s.Samples = 0
	s.TargetCI = 0.15
	return s.Normalize()
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
	return marshal(t, res)
}

// marshal returns v's JSON.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// requireSameJSON fails t unless v's JSON is want.
func requireSameJSON(t *testing.T, what string, want []byte, v any) {
	t.Helper()
	if got := marshal(t, v); !bytes.Equal(got, want) {
		t.Errorf("%s: JSON differs:\n got %s\nwant %s", what, got, want)
	}
}

// finish runs n workers against url until c has its result.
func finish(t *testing.T, url string, c *Coordinator, n int) *campaign.StudyResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	wait := startFleet(ctx, t, url, n, "w", nil, 0)
	res, err := c.Result(ctx)
	if err != nil {
		t.Fatalf("%v (status %+v)", err, c.Status())
	}
	wait()
	return res
}

// startFleet launches n Work loops against base and returns a wait func that
// fails the test on any worker error. When profile is not nil, the workers'
// HTTP clients route through chaos transports seeded seed, seed+1, ….
func startFleet(ctx context.Context, t *testing.T, base string, n int, prefix string, profile *chaosProfile, seed int64) func() {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		opts := WorkerOptions{
			BaseURL:   base,
			ID:        fmt.Sprintf("%s-%d", prefix, i),
			Poll:      10 * time.Millisecond,
			Telemetry: telemetry.New(),
		}
		if profile != nil {
			opts.HTTPClient = &http.Client{Transport: newChaosTransport(seed+int64(i), *profile, nil)}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = Work(ctx, opts)
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
// only once h has answered all n; everything else passes straight through.
// No worker can then start a shard before n workers hold a lease.
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
			forward(w, rec)
		case <-r.Context().Done():
		}
	})
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

// restartProxy serves through first until first has accepted its n-th report
// of progress. From inside that report's handler, once first has answered,
// it loads a replacement from first's state file — the state that report
// left, as reports are served one at a time — serves every later request
// through it and sends it down replaced (nil if it failed to load). A
// restart after the campaign ended tests nothing, and fails.
type restartProxy struct {
	t        *testing.T
	first    *Coordinator
	opts     CoordinatorOptions
	n        int
	replaced chan *Coordinator

	mu       sync.Mutex
	accepted int
	h        http.Handler // the serving coordinator's
}

func (p *restartProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	if h := p.h; p.accepted == p.n || r.URL.Path != "/v1/report" {
		p.mu.Unlock()
		h.ServeHTTP(w, r)
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
				c, err := NewCoordinator(p.opts)
				if err != nil {
					p.t.Errorf("restart: %v", err)
				} else {
					p.h = c.Handler()
				}
				p.replaced <- c
			}
		}
	}
	forward(w, rec)
}

// forward writes a recorded reply to w.
func forward(w http.ResponseWriter, rec *httptest.ResponseRecorder) {
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

// TestCampaignSpecValidate covers the spec's input rejection.
func TestCampaignSpecValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	checkSpecRejections(t, []specCase{
		{"no workload", func(s *CampaignSpec) { s.Workload = "" }},
		{"zero samples", func(s *CampaignSpec) { s.Samples = 0 }},
		{"negative samples", func(s *CampaignSpec) { s.Samples = -4 }},
		{"zero inputs", func(s *CampaignSpec) { s.Inputs = 0 }},
		{"negative shards", func(s *CampaignSpec) { s.Shards = -1 }},
		{"bad precision", func(s *CampaignSpec) { s.Precision = "fp12" }},
	})
}

// TestDistribAdaptiveSpecValidate: the wire-level mutual exclusion and range
// checks on TargetCI.
func TestDistribAdaptiveSpecValidate(t *testing.T) {
	if err := adaptiveSpec().Validate(); err != nil {
		t.Fatalf("adaptive spec rejected: %v", err)
	}
	checkSpecRejections(t, []specCase{
		{"both samples and target_ci", func(s *CampaignSpec) { s.TargetCI = 0.1 }},
		{"target_ci too wide", func(s *CampaignSpec) { s.Samples = 0; s.TargetCI = 0.7 }},
		{"negative target_ci", func(s *CampaignSpec) { s.TargetCI = -0.1 }},
	})
}

// TestCampaignSpecOptionsInverse holds NewCampaignSpec to being the inverse
// of Options, field by field by reflection, so a field added to one side of
// the mapping only fails here. A spec comes back whole from its options, and
// an options value keeps exactly the fields the spec has a namesake for.
func TestCampaignSpecOptionsInverse(t *testing.T) {
	var full CampaignSpec
	fillNonZero(t, reflect.ValueOf(&full).Elem())
	for _, tc := range []struct {
		name string
		spec CampaignSpec
	}{
		{"every field", full},
		{"fixed", testSpec()},
		{"adaptive", adaptiveSpec()},
	} {
		back := NewCampaignSpec(tc.spec.Workload, tc.spec.Precision, tc.spec.WorkloadSeed, tc.spec.Options())
		want, got := reflect.ValueOf(tc.spec), reflect.ValueOf(back)
		for i := range want.NumField() {
			if w, g := want.Field(i).Interface(), got.Field(i).Interface(); w != g {
				t.Errorf("%s: %s %v came back %v", tc.name, want.Type().Field(i).Name, w, g)
			}
		}
	}

	var opts campaign.StudyOptions
	fillNonZero(t, reflect.ValueOf(&opts).Elem())
	want, got := reflect.ValueOf(opts), reflect.ValueOf(NewCampaignSpec("w", "fp16", 1, opts).Options())
	for i := range want.NumField() {
		f := want.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		w := want.Field(i)
		if _, inSpec := reflect.TypeOf(full).FieldByName(f.Name); !inSpec {
			w = reflect.Zero(f.Type)
		}
		if g := got.Field(i); w.Interface() != g.Interface() {
			t.Errorf("StudyOptions.%s: %v came back %v", f.Name, w, g)
		}
	}
}

// fillNonZero sets every exported field of the struct v to a non-zero value.
func fillNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	for i := range v.NumField() {
		f, sf := v.Field(i), v.Type().Field(i)
		if !sf.IsExported() {
			continue
		}
		switch f.Kind() {
		case reflect.String:
			f.SetString(sf.Name)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i+1) / 64)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		default:
			t.Fatalf("%s.%s: no non-zero value for a %v", v.Type(), sf.Name, f.Kind())
		}
	}
}

// specCase is one way of spoiling the fixed-count test spec.
type specCase struct {
	name   string
	mutate func(*CampaignSpec)
}

// checkSpecRejections requires Validate to reject each mutated test spec.
func checkSpecRejections(t *testing.T, cases []specCase) {
	t.Helper()
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
