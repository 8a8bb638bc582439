package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
)

// Fuzzing the decoders a socket reaches: POST /v1/report and POST /v1/lease,
// through Coordinator.Handler() — integrity layer included — and the
// worker's GET /v1/campaign reply (FuzzHelloReply, below). Every
// input meets a coordinator in one fixed, mid-campaign state (the "rig"), so
// the committed corpus of real bodies (testdata/fuzz) is accepted, not
// bounced off the lease table, and mutations of it reach the planner.
//
//	fixed rig    2 shards, every shard audited. lease-1: "p" completed shard 0;
//	             lease-2: "w" holds shard 1; lease-3: "a" holds shard 0's audit.
//	adaptive rig 2 shards, three rounds. lease-1: "w" holds shard 0; lease-2:
//	             "p" parked shard 1 — w's parked final report crosses the round
//	             barrier and runs the planner on what it carried.

// rigShards are the real checkpoints the rigs are built from, computed once.
var rigShards = sync.OnceValue(func() (r struct {
	fixedDone, adaptiveParked [2]campaign.ShardCheckpoint
}) {
	for _, adaptive := range []bool{false, true} {
		spec := rigSpec(adaptive)
		w, err := spec.BuildWorkload()
		if err != nil {
			panic(err)
		}
		for i := 0; i < 2; i++ {
			sc, err := campaign.RunShard(context.Background(), accel.NVDLASmall(), w, spec.Options(), campaign.ShardRun{Index: i})
			if err != nil {
				panic(err)
			}
			if adaptive {
				r.adaptiveParked[i] = sc
			} else {
				r.fixedDone[i] = sc
			}
		}
	}
	return r
})

func rigSpec(adaptive bool) CampaignSpec {
	s := chaosSpec()
	if adaptive {
		s = roundsSpec()
	}
	s.Shards = 2
	return s
}

// newRig builds the coordinator state described above through the public
// handlers, so the rig is a state a real fleet reaches.
func newRig(tb testing.TB, adaptive bool) *Coordinator {
	tb.Helper()
	opts := CoordinatorOptions{Spec: rigSpec(adaptive), LeaseTTL: 400 * time.Millisecond}
	if !adaptive {
		opts.AuditFraction = 1
	}
	c, err := NewCoordinator(opts)
	if err != nil {
		tb.Fatal(err)
	}
	h := c.Handler()
	lease := func(worker string) *Lease {
		var r LeaseReply
		rigPost(tb, h, "/v1/lease", LeaseRequest{Worker: worker}, &r)
		if r.Lease == nil {
			tb.Fatalf("rig: no lease for %s", worker)
		}
		return r.Lease
	}
	final := func(worker string, l *Lease, sc campaign.ShardCheckpoint) {
		var r ReportReply
		rigPost(tb, h, "/v1/report", ReportRequest{Worker: worker, LeaseID: l.ID, Shard: sc, Final: true}, &r)
		if !r.OK {
			tb.Fatalf("rig: %s's final report refused", worker)
		}
	}
	real := rigShards()
	if adaptive {
		lease("w")
		final("p", lease("p"), real.adaptiveParked[1])
	} else {
		final("p", lease("p"), real.fixedDone[0])
		lease("w")
		if a := lease("a"); !a.Audit {
			tb.Fatal("rig: third lease is not the audit")
		}
	}
	return c
}

func rigPost(tb testing.TB, h http.Handler, path string, in, out any) {
	tb.Helper()
	blob, err := json.Marshal(in)
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(blob)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("rig: POST %s: %d %s", path, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		tb.Fatal(err)
	}
}

// tableState renders everything a request may change: Status() and the lease
// table, deadlines aside (an accepted heartbeat moves those and nothing else).
func tableState(c *Coordinator) string {
	st, _ := json.Marshal(c.Status())
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%s seq=%d expired=%d", st, c.table.seq, c.table.expired)
	ids := make([]string, 0, len(c.table.leases))
	for id := range c.table.leases {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		le := c.table.leases[id]
		fmt.Fprintf(&b, " %s:%d/%s/%v/%v", id, le.shard, le.worker, le.audit, le.reported)
	}
	for i := range c.table.shards {
		e := &c.table.shards[i]
		ck, _ := digestJSON(c.table.sched.Checkpoint(i))
		ak, _ := digestJSON(e.auditCkpt)
		fmt.Fprintf(&b, " [%d %d %s %s %d %s %s %s]", i, c.table.sched.Status(i), e.lease, e.sum, e.audit, e.auditLease, ck, ak)
	}
	return b.String()
}

// fuzzBody is the property both targets check for one body on one path.
// decodes says whether the handler's decoder takes the body.
func fuzzBody(t *testing.T, path string, body []byte, adaptive, decodes bool) {
	c := newRig(t, adaptive)
	h := c.Handler()
	before := tableState(c)
	send := func(digest string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set(DigestHeader, digest)
		rec := httptest.NewRecorder()
		served := make(chan struct{})
		go func() { h.ServeHTTP(rec, req); close(served) }()
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Fatal("no answer in 5 s (a long-poll is held 100 ms at most here)")
		}
		return rec
	}

	// A body that does not match its digest is a transport fault: 503 (the
	// worker re-sends), whatever the body says.
	if rec := send(digestBytes(append([]byte("x"), body...))); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("bad digest answered %d, want 503", rec.Code)
	}
	if after := tableState(c); after != before {
		t.Fatalf("a body with a bad digest changed the coordinator:\n before %s\n after  %s", before, after)
	}

	rec := send(digestBytes(body))
	switch rec.Code {
	case http.StatusOK:
		if !decodes {
			t.Fatalf("malformed body answered 200: %s", rec.Body)
		}
		if got := rec.Header().Get(DigestHeader); got != digestBytes(rec.Body.Bytes()) {
			t.Fatal("reply digest does not match the reply")
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("reply is not JSON: %s", rec.Body)
		}
	case http.StatusBadRequest:
		if after := tableState(c); after != before {
			t.Fatalf("a rejected body changed the coordinator:\n before %s\n after  %s", before, after)
		}
	default:
		t.Fatalf("answered %d (%s), want 200 or 400", rec.Code, rec.Body)
	}
}

func FuzzReportBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, adaptive bool) {
		var req ReportRequest
		fuzzBody(t, "/v1/report", body, adaptive, json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil)
	})
}

func FuzzLeaseBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, adaptive bool) {
		var req LeaseRequest
		fuzzBody(t, "/v1/lease", body, adaptive, json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil)
	})
}

// FuzzHelloReply: the last decoder a socket reaches, on the worker's side of
// GET /v1/campaign — json.Unmarshal into HelloReply (what worker.do runs),
// then the fingerprint check, Normalize and Validate (HelloReply.campaign).
// No body may panic it, and a spec it accepts survives its own encoding
// unchanged: the campaign a worker runs is the one it would describe.
func FuzzHelloReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var h HelloReply
		if json.Unmarshal(body, &h) != nil {
			return
		}
		spec, err := h.campaign()
		if err != nil {
			return
		}
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var again CampaignSpec
		if err := json.Unmarshal(blob, &again); err != nil || again != spec {
			t.Fatalf("accepted spec %+v re-decodes as %+v (%v)", spec, again, err)
		}
	})
}

// readSeed parses one committed corpus file of the targets above: a body,
// and for the two coordinator targets the rig it meets.
func readSeed(t *testing.T, path string) (body []byte, adaptive bool) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if len(lines) < 2 || len(lines) > 3 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a body corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s), len(lines) == 3 && lines[2] == "bool(true)"
}

// TestWireCorpusAccepted: the committed seeds named ok-* are bodies real
// clients of this and the previous wire sequence send, and replies real
// coordinators send. They must keep being accepted — a seed that starts
// bouncing is a broken wire, not a stale corpus.
func TestWireCorpusAccepted(t *testing.T) {
	hellos, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzHelloReply", "ok-*"))
	if err != nil || len(hellos) == 0 {
		t.Fatalf("no ok-* seeds for FuzzHelloReply (%v)", err)
	}
	for _, seed := range hellos {
		body, _ := readSeed(t, seed)
		var h HelloReply
		if err := json.Unmarshal(body, &h); err != nil {
			t.Errorf("%s: %v", seed, err)
		} else if _, err := h.campaign(); err != nil {
			t.Errorf("%s: a worker refuses it: %v", seed, err)
		}
	}
	for _, tc := range []struct{ target, path, want string }{
		{"FuzzReportBody", "/v1/report", `"ok":true`},
		{"FuzzLeaseBody", "/v1/lease", `"lease":{`},
	} {
		seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", tc.target, "ok-*"))
		if err != nil || len(seeds) == 0 {
			t.Fatalf("no ok-* seeds for %s (%v)", tc.target, err)
		}
		for _, seed := range seeds {
			body, adaptive := readSeed(t, seed)
			rec := httptest.NewRecorder()
			newRig(t, adaptive).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), tc.want) {
				t.Errorf("%s: answered %d %s, want 200 with %s", seed, rec.Code, rec.Body, tc.want)
			}
		}
	}
}
