package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fidelity/internal/campaign"
)

// The lease-sequence suite: one exchange per lease (the final report's reply
// carries the next grant), a lost reply costs a retry and not a TTL, an idle
// worker waits at the coordinator, and clients that speak the previous
// sequence by hand still work against the same coordinator.

// roundsSpec is adaptiveSpec with a target tight enough for three rounds
// (adaptiveSpec converges on its pilot), so there are barriers to cross.
func roundsSpec() CampaignSpec {
	s := adaptiveSpec()
	s.TargetCI = 0.05
	return s
}

// leaseCount is how many leases c has issued (what the benchmark pins as
// distrib.leases): re-grants and long-polls must not move it.
func leaseCount(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.table.seq
}

// oldWork is a worker of the previous wire sequence, hand-rolled the way
// benchmark/trace_fleet.go and pre-grant binaries speak it: poll /v1/lease
// with no wait_ms, stream the terminal checkpoint as a heartbeat, then send
// Final without want_lease.
func oldWork(ctx context.Context, base, id string, c *Coordinator) error {
	runner, err := campaign.NewShardRunner(c.cfg, c.w, c.spec.Options())
	if err != nil {
		return err
	}
	post := func(path string, in, out any) error {
		blob, err := json.Marshal(in)
		if err != nil {
			return err
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(blob))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: %s", path, resp.Status)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	for ctx.Err() == nil {
		var reply LeaseReply
		if err := post("/v1/lease", LeaseRequest{Worker: id}, &reply); err != nil {
			return err
		}
		if reply.Done {
			return nil
		}
		if reply.Lease == nil {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		sc, err := runner.Run(ctx, campaign.ShardRun{Index: reply.Lease.Shard, Resume: reply.Lease.Resume})
		if err != nil {
			return err
		}
		var rep ReportReply
		req := ReportRequest{Worker: id, LeaseID: reply.Lease.ID, Shard: sc}
		if err := post("/v1/report", req, &rep); err != nil {
			return err
		}
		if !rep.OK || rep.Lease != nil {
			return fmt.Errorf("old-style heartbeat answered %+v", rep)
		}
		req.Final = true
		if err := post("/v1/report", req, &rep); err != nil {
			return err
		}
		if !rep.OK || rep.Lease != nil {
			return fmt.Errorf("old-style final report answered %+v, want accepted and no grant", rep)
		}
	}
	return ctx.Err()
}

// oldCoordinator makes h a coordinator built before wait_ms and want_lease:
// it never sees the two fields, so it answers every poll at once and attaches
// no grant. polls counts the lease requests it served.
func oldCoordinator(h http.Handler, polls *atomic.Int32) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/lease" {
			polls.Add(1)
		}
		var fields map[string]json.RawMessage
		if body, err := io.ReadAll(r.Body); err == nil && json.Unmarshal(body, &fields) == nil {
			delete(fields, "wait_ms")
			delete(fields, "want_lease")
			body, _ = json.Marshal(fields)
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.Header.Set(DigestHeader, digestBytes(body))
		}
		h.ServeHTTP(rw, r)
	})
}

// TestDistribWorkAgainstOldCoordinator: Work against a coordinator that
// predates the two fields falls back to the previous sequence — it polls at
// the cadence the replies ask for instead of spinning — and the result is the
// baseline's.
func TestDistribWorkAgainstOldCoordinator(t *testing.T) {
	spec := roundsSpec()
	want := baselineJSON(t, spec)
	c, err := NewCoordinator(CoordinatorOptions{Spec: spec, LeaseTTL: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var polls atomic.Int32
	srv := httptest.NewServer(oldCoordinator(c.Handler(), &polls))
	defer srv.Close()
	start := time.Now()
	res := finish(t, srv.URL, c, 2)
	elapsed := time.Since(start)
	requireSameJSON(t, "result against an old coordinator", want, res)
	leases := leaseCount(c)
	// One poll per lease plus the empty ones, which a pacing worker spaces a
	// jittered TTL/4 apart (50 ms at the closest); allow each of the two
	// workers twice that rate. A spinning worker polls every ~100 µs.
	n, most := int(polls.Load()), leases+4+2*2*int(elapsed/(50*time.Millisecond))
	if n < leases || n > most {
		t.Errorf("%d lease requests in %v for %d leases, want at most %d: the worker is not pacing its polls", n, elapsed, leases, most)
	}
}

// TestDistribMixedVersionDifferential: the previous wire sequence and the
// new one are the same campaign. An old-style client alone, Work alone, and
// both side by side against coordinators of one adaptive and one fixed spec
// assemble byte-identical StudyResults — equal to in-process Study — out of
// the same number of leases.
func TestDistribMixedVersionDifferential(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec CampaignSpec
	}{{"fixed", testSpec()}, {"adaptive", roundsSpec()}} {
		want := baselineJSON(t, tc.spec)
		leases := -1
		for _, fleet := range []string{"old", "new", "old+new"} {
			t.Run(tc.name+"/"+fleet, func(t *testing.T) {
				c, err := NewCoordinator(CoordinatorOptions{Spec: tc.spec})
				if err != nil {
					t.Fatal(err)
				}
				srv := httptest.NewServer(c.Handler())
				defer srv.Close()
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()

				var wg sync.WaitGroup
				errs := make(chan error, 2)
				for _, kind := range strings.Split(fleet, "+") {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if kind == "old" {
							errs <- oldWork(ctx, srv.URL, "w-old", c)
						} else {
							errs <- Work(ctx, WorkerOptions{BaseURL: srv.URL, ID: "w-new", Poll: 10 * time.Millisecond})
						}
					}()
				}
				res, err := c.Result(ctx)
				if err != nil {
					t.Fatal(err)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil {
						t.Errorf("%s worker: %v", fleet, err)
					}
				}
				requireSameJSON(t, fleet+" fleet's result", want, res)
				st := c.Status()
				if st.Expired != 0 {
					t.Errorf("expired = %d, want 0", st.Expired)
				}
				seq := leaseCount(c)
				if leases < 0 {
					leases = seq
				}
				if seq != leases || seq < tc.spec.Shards {
					t.Errorf("%s fleet used %d leases, the first fleet %d (at least one per shard: %d)", fleet, seq, leases, tc.spec.Shards)
				}
			})
		}
	}
}

// TestLeaseTableRegrant: a worker that asks again while it holds a lease it
// never reported against is handed the same lease — the reply that carried it
// was lost — with a fresh deadline and no new ID; once it has reported, or for
// anyone else, acquire moves on.
func TestLeaseTableRegrant(t *testing.T) {
	now := time.Unix(1000, 0)
	tab := fixedTable(3, time.Second)

	l1 := tab.acquire("a", now)
	again := tab.acquire("a", now.Add(900*time.Millisecond))
	if again == nil || again.ID != l1.ID || again.Shard != l1.Shard || tab.seq != 1 {
		t.Fatalf("re-acquire = %+v (seq %d), want lease %s re-issued", again, tab.seq, l1.ID)
	}
	// The deadline restarted: 1.5 s after the first grant the lease is alive.
	if tab.sweep(now.Add(1500 * time.Millisecond)); tab.leases[l1.ID] == nil || tab.expired != 0 {
		t.Fatalf("re-issued lease lapsed on its first deadline (expired %d)", tab.expired)
	}
	if other := tab.acquire("b", now.Add(1500*time.Millisecond)); other == nil || other.ID == l1.ID || other.Shard == l1.Shard {
		t.Fatalf("another worker was handed %+v, want a lease of its own", other)
	}
	sc := campaign.NewShardCheckpoint(l1.Shard)
	sc.Experiments = 3
	if !tab.report(&ReportRequest{Worker: "a", LeaseID: l1.ID, Shard: sc}, now.Add(1600*time.Millisecond)) {
		t.Fatal("heartbeat on the re-issued lease rejected")
	}
	if next := tab.acquire("a", now.Add(1700*time.Millisecond)); next == nil || next.ID == l1.ID {
		t.Fatalf("acquire after a report = %+v, want a new lease (the worker demonstrably holds %s)", next, l1.ID)
	}

	// Audit leases ride the same path.
	aud := fixedTable(1, time.Second)
	aud.auditFor = func(int) bool { return true }
	p := aud.acquire("a", now)
	fin := campaign.NewShardCheckpoint(0)
	fin.Done = true
	aud.report(&ReportRequest{Worker: "a", LeaseID: p.ID, Shard: fin, Final: true}, now)
	a1 := aud.acquire("b", now)
	a2 := aud.acquire("b", now.Add(time.Millisecond))
	if a1 == nil || !a1.Audit || a2 == nil || a2.ID != a1.ID || !a2.Audit || aud.seq != 2 {
		t.Fatalf("audit re-acquire = %+v then %+v (seq %d), want one audit lease issued twice", a1, a2, aud.seq)
	}
}

// TestLeaseTableStaleHeartbeat: heartbeat k delivered after k+1 under the
// same live lease (a duplicated or delayed delivery) extends the lease and
// changes nothing else; final reports replace unconditionally.
func TestLeaseTableStaleHeartbeat(t *testing.T) {
	now := time.Unix(1000, 0)
	hb := func(shard, n int) campaign.ShardCheckpoint {
		sc := campaign.NewShardCheckpoint(shard)
		sc.Experiments = n
		return sc
	}
	tab := fixedTable(1, time.Second)
	tab.auditFor = func(int) bool { return true }
	l := tab.acquire("a", now)
	if !tab.report(&ReportRequest{Worker: "a", LeaseID: l.ID, Shard: hb(0, 10)}, now) {
		t.Fatal("heartbeat k+1 rejected")
	}
	late := now.Add(800 * time.Millisecond)
	if !tab.report(&ReportRequest{Worker: "a", LeaseID: l.ID, Shard: hb(0, 5)}, late) {
		t.Fatal("reordered heartbeat k rejected: it is a valid sign of life")
	}
	if got := tab.sched.Checkpoint(0).Experiments; got != 10 {
		t.Errorf("accepted checkpoint rolled back to %d experiments, want 10", got)
	}
	if got := tab.leases[l.ID].deadline; !got.Equal(late.Add(time.Second)) {
		t.Errorf("deadline = %v, want extended from the stale heartbeat's arrival", got)
	}
	// A final report is the shard's word, whatever it counts.
	fin := hb(0, 7)
	fin.Done = true
	if !tab.report(&ReportRequest{Worker: "a", LeaseID: l.ID, Shard: fin, Final: true}, late) || tab.sched.Checkpoint(0).Experiments != 7 {
		t.Errorf("final report did not replace the checkpoint: %+v", tab.sched.Checkpoint(0))
	}

	// The audit checkpoint obeys the same rule and never touches the primary.
	al := tab.acquire("b", late)
	if al == nil || !al.Audit {
		t.Fatalf("audit lease = %+v", al)
	}
	tab.report(&ReportRequest{Worker: "b", LeaseID: al.ID, Shard: hb(0, 6)}, late)
	tab.report(&ReportRequest{Worker: "b", LeaseID: al.ID, Shard: hb(0, 2)}, late)
	if a, p := tab.shards[0].auditCkpt, tab.sched.Checkpoint(0); a.Experiments != 6 || p.Experiments != 7 {
		t.Errorf("after a reordered audit heartbeat: audit %d, primary %d experiments, want 6 and 7", a.Experiments, p.Experiments)
	}
}

// lossyTransport delivers every request but loses the reply to the first one
// that match selects, remembering the lease that reply carried and the lease
// the retry (the next request match selects) is answered with.
type lossyTransport struct {
	match func(path string, body []byte) bool

	mu          sync.Mutex
	lost, retry *Lease
	dropped     bool
}

func (lt *lossyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		body, _ = io.ReadAll(req.Body)
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !lt.match(req.URL.Path, body) {
		return resp, err
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var rep struct {
		Lease *Lease `json:"lease"`
	}
	json.Unmarshal(blob, &rep)
	lt.mu.Lock()
	defer lt.mu.Unlock()
	switch {
	case !lt.dropped && rep.Lease != nil:
		lt.dropped, lt.lost = true, rep.Lease
		return nil, errors.New("lossy: reply carrying " + rep.Lease.ID + " lost")
	case lt.dropped && lt.retry == nil:
		lt.retry = rep.Lease
	}
	resp.Body = io.NopCloser(bytes.NewReader(blob))
	return resp, nil
}

// TestDistribLostGrant: the reply carrying a grant is lost — to a want_lease
// final report, to a /v1/lease — and the worker's retry is handed the same
// lease. Nothing waits out the 30 s TTL, nothing expires, and the result is
// the baseline's.
func TestDistribLostGrant(t *testing.T) {
	spec := chaosSpec()
	want := baselineJSON(t, spec)
	for _, tc := range []struct {
		name  string
		match func(path string, body []byte) bool
	}{
		{"final-report", func(p string, b []byte) bool {
			return p == "/v1/report" && bytes.Contains(b, []byte(`"want_lease":true`))
		}},
		{"lease", func(p string, _ []byte) bool { return p == "/v1/lease" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCoordinator(CoordinatorOptions{Spec: spec})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(c.Handler())
			defer srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()

			lt := &lossyTransport{match: tc.match}
			werr := make(chan error, 1)
			go func() {
				werr <- Work(ctx, WorkerOptions{BaseURL: srv.URL, ID: "lossy", Poll: 5 * time.Millisecond, HTTPClient: &http.Client{Transport: lt}})
			}()
			res, err := c.Result(ctx)
			if err != nil {
				t.Fatalf("%v: a lost grant stranded its shard (status %+v)", err, c.Status())
			}
			if err := <-werr; err != nil {
				t.Error(err)
			}
			if lt.lost == nil || lt.retry == nil || lt.retry.ID != lt.lost.ID || lt.retry.Shard != lt.lost.Shard {
				t.Errorf("lost grant %+v, retry answered with %+v: want the same lease", lt.lost, lt.retry)
			}
			if st := c.Status(); st.Expired != 0 {
				t.Errorf("expired = %d, want 0", st.Expired)
			}
			requireSameJSON(t, "result after a lost grant", want, res)
		})
	}
}

// TestDistribLostGrantAcrossRestart: the coordinator persists a grant and
// dies before the reply leaves. Its successor, loaded from the state file,
// answers the worker's retry with the same lease — for a /v1/lease and for a
// want_lease final report, whose lease is gone but whose grant is not.
func TestDistribLostGrantAcrossRestart(t *testing.T) {
	spec := chaosSpec()
	copts := CoordinatorOptions{Spec: spec, StatePath: filepath.Join(t.TempDir(), "state.json")}
	serve := func() (*Coordinator, *httptest.Server) {
		c, err := NewCoordinator(copts)
		if err != nil {
			t.Fatal(err)
		}
		return c, httptest.NewServer(c.Handler())
	}
	c1, srv1 := serve()
	var first LeaseReply
	postJSON(t, srv1.URL+"/v1/lease", LeaseRequest{Worker: "w"}, &first) // granted, persisted, "lost"
	srv1.Close()

	c2, srv2 := serve()
	var retry LeaseReply
	postJSON(t, srv2.URL+"/v1/lease", LeaseRequest{Worker: "w"}, &retry)
	if first.Lease == nil || retry.Lease == nil || retry.Lease.ID != first.Lease.ID || retry.Lease.Shard != first.Lease.Shard {
		t.Fatalf("grant %+v, retry after restart %+v: want the same lease", first.Lease, retry.Lease)
	}
	sc, err := campaign.RunShard(context.Background(), c1.cfg, c1.w, spec.Options(), campaign.ShardRun{Index: retry.Lease.Shard})
	if err != nil {
		t.Fatal(err)
	}
	final := ReportRequest{Worker: "w", LeaseID: retry.Lease.ID, Shard: sc, Final: true, WantLease: true}
	var rep ReportReply
	postJSON(t, srv2.URL+"/v1/report", final, &rep) // accepted, next grant persisted, "lost"
	srv2.Close()
	if !rep.OK || rep.Lease == nil || rep.Lease.ID == retry.Lease.ID {
		t.Fatalf("final report answered %+v, want accepted with a fresh grant", rep)
	}

	c3, srv3 := serve()
	defer srv3.Close()
	var again ReportReply
	postJSON(t, srv3.URL+"/v1/report", final, &again)
	if again.OK || !again.Cancel || again.Lease == nil || again.Lease.ID != rep.Lease.ID {
		t.Fatalf("retried final report after restart answered %+v, want refused (already accepted) with lease %s again", again, rep.Lease.ID)
	}
	for _, c := range []*Coordinator{c2, c3} {
		if st := c.Status(); st.Expired != 0 {
			t.Errorf("expired = %d, want 0", st.Expired)
		}
	}
	if st := c3.Status(); st.Shards.Done != 1 || st.Shards.Leased != 1 {
		t.Errorf("shards after the retries = %+v, want one done and one leased", st.Shards)
	}
}

// grantTap records the adaptive round of every shard a reply leases, and how
// long every /v1/lease took and whether it came back with a lease or Done.
type grantTap struct {
	h http.Handler

	mu     sync.Mutex
	rounds map[int]bool
	polls  []leasePoll
}

type leasePoll struct {
	held        time.Duration
	lease, done bool
}

func (g *grantTap) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec := httptest.NewRecorder()
	g.h.ServeHTTP(rec, r)
	held := time.Since(start)
	for k, v := range rec.Header() {
		rw.Header()[k] = v
	}
	rw.WriteHeader(rec.Code)
	rw.Write(rec.Body.Bytes())

	var rep struct {
		Lease *Lease `json:"lease"`
		Done  bool   `json:"done"`
	}
	if json.Unmarshal(rec.Body.Bytes(), &rep) != nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if r.URL.Path == "/v1/lease" {
		g.polls = append(g.polls, leasePoll{held, rep.Lease != nil, rep.Done})
	}
	if rep.Lease != nil {
		round := 0
		if res := rep.Lease.Resume; res != nil && res.Adaptive != nil {
			round = res.Adaptive.Round
		}
		g.rounds[round] = true
	}
}

// TestDistribBarrierLongPoll: at the default 30 s TTL a worker that finds the
// round's shards all leased used to sleep a jittered quarter TTL and miss
// every later round of a short campaign, and then kept its Work call open for
// seconds after the result. Held at the coordinator instead, every /v1/lease
// a worker sends at a barrier comes back with a lease or Done well inside its
// 7.5 s bound, and both Work calls return with the result. (Which worker runs
// which round is the scheduler's business: a round can be over before the
// other worker asks.)
func TestDistribBarrierLongPoll(t *testing.T) {
	spec := roundsSpec()
	c, err := NewCoordinator(CoordinatorOptions{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	tap := &grantTap{h: c.Handler(), rounds: map[int]bool{}}
	srv := httptest.NewServer(tap)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	returned := make(chan time.Time, 2)
	for _, id := range []string{"bar-0", "bar-1"} {
		go func() {
			if err := Work(ctx, WorkerOptions{BaseURL: srv.URL, ID: id}); err != nil {
				t.Errorf("worker %s: %v", id, err)
			}
			returned <- time.Now()
		}()
	}
	if _, err := c.Result(ctx); err != nil {
		t.Fatal(err)
	}
	ready := time.Now()
	for i := 0; i < 2; i++ {
		if lag := (<-returned).Sub(ready); lag > time.Second {
			t.Errorf("a Work call returned %v after the result, want within 1 s", lag)
		}
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if len(tap.rounds) < 2 {
		t.Fatalf("campaign took %d round(s); the barrier needs at least 2", len(tap.rounds))
	}
	bound := DefaultLeaseTTL / 4 // what the coordinator holds a /v1/lease for at most
	var longest time.Duration
	for i, p := range tap.polls {
		if !p.lease && !p.done || p.held > bound/4 {
			t.Errorf("/v1/lease %d of %d held %v and answered lease %v, done %v: want a lease or Done within %v",
				i+1, len(tap.polls), p.held, p.lease, p.done, bound/4)
		}
		longest = max(longest, p.held)
	}
	t.Logf("%d rounds, %d /v1/lease requests, the longest held %v", len(tap.rounds), len(tap.polls), longest)
	if st := c.Status(); st.Expired != 0 {
		t.Errorf("expired = %d, want 0", st.Expired)
	}
}

// TestDistribLongPollRelease: a held /v1/lease is answered at once when a
// lease is handed back, when drain starts and when the campaign finishes —
// never by waiting out its bound (7.5 s at the default TTL) — and a request
// without wait_ms is never held.
func TestDistribLongPollRelease(t *testing.T) {
	spec := chaosSpec()
	spec.Shards = 1
	for _, tc := range []struct {
		name    string
		release func(t *testing.T, c *Coordinator, url string, held *Lease)
		check   func(LeaseReply) bool
	}{
		{"hand-back", func(t *testing.T, c *Coordinator, url string, held *Lease) {
			var rep ReportReply
			postJSON(t, url+"/v1/report", ReportRequest{Worker: "hog", LeaseID: held.ID, Shard: campaign.NewShardCheckpoint(0), Final: true}, &rep)
		}, func(r LeaseReply) bool { return r.Lease != nil && r.Lease.Shard == 0 }},
		{"drain", func(_ *testing.T, c *Coordinator, _ string, _ *Lease) { c.StartDrain() },
			func(r LeaseReply) bool { return r.Draining && r.Lease == nil }},
		{"finish", func(t *testing.T, c *Coordinator, url string, held *Lease) {
			sc, err := campaign.RunShard(context.Background(), c.cfg, c.w, spec.Options(), campaign.ShardRun{Index: 0})
			if err != nil {
				t.Fatal(err)
			}
			var rep ReportReply
			postJSON(t, url+"/v1/report", ReportRequest{Worker: "hog", LeaseID: held.ID, Shard: sc, Final: true}, &rep)
		}, func(r LeaseReply) bool { return r.Done }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCoordinator(CoordinatorOptions{Spec: spec})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(c.Handler())
			defer srv.Close()
			var hog LeaseReply
			postJSON(t, srv.URL+"/v1/lease", LeaseRequest{Worker: "hog"}, &hog)
			if hog.Lease == nil {
				t.Fatal("no lease for the hog")
			}

			start := time.Now()
			var quick LeaseReply
			postJSON(t, srv.URL+"/v1/lease", LeaseRequest{Worker: "old"}, &quick)
			if quick.Lease != nil || quick.RetryAfterMS == 0 || time.Since(start) > time.Second {
				t.Fatalf("request without wait_ms answered %+v after %v, want an immediate empty reply", quick, time.Since(start))
			}

			got := make(chan LeaseReply, 1)
			go func() {
				var r LeaseReply
				resp, err := http.Post(srv.URL+"/v1/lease", "application/json", strings.NewReader(`{"worker":"idle","wait_ms":30000}`))
				if err == nil {
					err = json.NewDecoder(resp.Body).Decode(&r)
					resp.Body.Close()
				}
				if err != nil {
					t.Error(err)
				}
				got <- r
			}()
			select {
			case r := <-got:
				t.Fatalf("long-poll answered %+v with nothing to lease, want it held", r)
			case <-time.After(100 * time.Millisecond):
			}
			start = time.Now()
			tc.release(t, c, srv.URL, hog.Lease)
			select {
			case r := <-got:
				if !tc.check(r) {
					t.Errorf("released long-poll answered %+v", r)
				}
				if d := time.Since(start); d > time.Second {
					t.Errorf("long-poll released after %v, want at once", d)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("long-poll still held 5 s after its release condition")
			}
		})
	}
}

// TestDistribNoGrantWhenClosing: a draining coordinator accepts a want_lease
// final report but attaches no grant, and neither does the report that
// finishes the campaign; an unasked report never gets one.
func TestDistribNoGrantWhenClosing(t *testing.T) {
	spec := chaosSpec()
	spec.Shards = 2
	c, err := NewCoordinator(CoordinatorOptions{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	run := func(l *Lease) campaign.ShardCheckpoint {
		sc, err := campaign.RunShard(context.Background(), c.cfg, c.w, spec.Options(), campaign.ShardRun{Index: l.Shard, Resume: l.Resume})
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	var a, b LeaseReply
	postJSON(t, srv.URL+"/v1/lease", LeaseRequest{Worker: "a"}, &a)
	postJSON(t, srv.URL+"/v1/lease", LeaseRequest{Worker: "b"}, &b)

	// Hand b's lease back unasked: the shard is pending again, nobody gets it.
	var rep ReportReply
	postJSON(t, srv.URL+"/v1/report", ReportRequest{Worker: "b", LeaseID: b.Lease.ID, Shard: campaign.NewShardCheckpoint(b.Lease.Shard), Final: true}, &rep)
	if !rep.OK || rep.Lease != nil {
		t.Fatalf("unasked hand-back answered %+v, want accepted and no grant", rep)
	}
	c.StartDrain()
	rep = ReportReply{}
	postJSON(t, srv.URL+"/v1/report", ReportRequest{Worker: "a", LeaseID: a.Lease.ID, Shard: run(a.Lease), Final: true, WantLease: true}, &rep)
	if !rep.OK || rep.Lease != nil {
		t.Fatalf("draining coordinator answered %+v, want accepted and no grant (a shard is pending)", rep)
	}
	if !c.Idle() {
		t.Error("draining coordinator holds a live lease")
	}

	// A successor finishes the campaign: the last report's reply says Done.
	c2, err := NewCoordinator(CoordinatorOptions{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	var l LeaseReply
	postJSON(t, srv2.URL+"/v1/lease", LeaseRequest{Worker: "a"}, &l)
	for n := 0; l.Lease != nil; n++ {
		rep = ReportReply{} // Decode leaves absent fields alone
		postJSON(t, srv2.URL+"/v1/report", ReportRequest{Worker: "a", LeaseID: l.Lease.ID, Shard: run(l.Lease), Final: true, WantLease: true}, &rep)
		if want := n == spec.Shards-1; !rep.OK || rep.Done != want || (rep.Lease == nil) != want {
			t.Fatalf("report %d answered %+v, want a grant until the campaign is done and none with Done", n, rep)
		}
		l.Lease = rep.Lease
	}
}

// TestWorkerReplyCap: a reply longer than MaxRequestBytes is reported as
// that, permanently — not read to the cap and retried as a JSON syntax error.
func TestWorkerReplyCap(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		chunk := bytes.Repeat([]byte(" "), 1<<20)
		for n := 0; n <= MaxRequestBytes; n += len(chunk) {
			rw.Write(chunk)
		}
	}))
	defer srv.Close()
	wk := &worker{base: srv.URL, hc: http.DefaultClient}
	err := wk.get(context.Background(), "/v1/campaign", &HelloReply{})
	var te *transientError
	if err == nil || errors.As(err, &te) || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("over-long reply: %v, want a permanent size error", err)
	}
}
