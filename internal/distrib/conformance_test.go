package distrib

// The fleet's conformance suite: a campaign run through the coordinator is
// byte-identical to campaign.Study with the same (seed, shards, target),
// whatever transport carries it and whatever breaks. That Study's JSON, run
// once per spec, is the reference; campaign's TestConformance holds Study to
// the oracle over the whole zoo. The cells are a pairwise covering array
// over transport × planner × disruption × workers.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"fidelity/internal/campaign"
)

// chaosProfiles are the chaos transport's regimes, one per chaos cell. Each
// perturbation must land in a transient retry, a lease-table rejection or a
// digest-mismatch re-send; one that leaks past them changes bytes.
var chaosProfiles = []struct {
	name string
	p    chaosProfile
}{
	{"drop", chaosProfile{DropBefore: 0.08, DropAfter: 0.05}}, // lost requests and lost replies
	{"delay", chaosProfile{Delay: 0.4, MaxDelay: 3 * time.Millisecond}},
	{"duplicate", chaosProfile{Duplicate: 0.15}},
	{"truncate", chaosProfile{Truncate: 0.12}},
	{"corrupt", chaosProfile{Corrupt: 0.12}},
	{"5xx", chaosProfile{ServerError: 0.08, BurstLen: 3}},
}

// disruptions: none (but audits); a worker dying mid-shard, whose lease must
// lapse and its shard resume elsewhere; a coordinator replaced at an
// accepted report by one loaded from its state file.
var disruptions = []string{"none", "worker-death", "coordinator-restart"}

// fleetCell is one run of the suite. chaos < 0 is loopback HTTP.
type fleetCell struct {
	spec    CampaignSpec
	chaos   int
	dis     string
	workers int
}

// fleetCells is the covering array: row (a, b) of the L9 orthogonal array
// sets the disruption to a and the worker count to the b-th, and reads
// transport and planner off its columns a+b and a+2b mod 3, their level 2
// folded onto 0. That makes six chaos cells, one per profile. The campaign
// takes four shards over two inputs; the adaptive target two rounds, so a
// disruption can land with a barrier ahead.
func fleetCells() []fleetCell {
	nets := [][2]string{{"mobilenet", "fp16"}, {"rnn", "int8"}, {"inception", "int8"}}
	var cells []fleetCell
	chaos := 0
	for a := range 3 {
		for b := range 3 {
			net := nets[(a+b)%len(nets)]
			spec := CampaignSpec{Workload: net[0], Precision: net[1], WorkloadSeed: 42, Tolerance: 0.1,
				Samples: 16, Inputs: 2, Seed: 7, Shards: 4}
			if (a+2*b)%3 == 1 {
				spec.Samples, spec.TargetCI = 0, 0.07
			}
			c := fleetCell{spec: spec.Normalize(), chaos: -1, dis: disruptions[a], workers: []int{1, 2, 4}[b]}
			if (a+b)%3 != 1 {
				c.chaos, chaos = chaos, chaos+1
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// TestConformance runs every cell against its reference.
func TestConformance(t *testing.T) {
	references := map[CampaignSpec][]byte{}
	for i, c := range fleetCells() {
		transport := "loopback"
		if c.chaos >= 0 {
			transport = "chaos-" + chaosProfiles[c.chaos].name
		}
		name := fmt.Sprintf("%s/%s/%s/%s/target=%v/workers=%d", c.dis, transport, c.spec.Workload, c.spec.Precision, c.spec.TargetCI, c.workers)
		t.Run(name, func(t *testing.T) {
			if references[c.spec] == nil {
				references[c.spec] = baselineJSON(t, c.spec)
			}
			c.run(t, references[c.spec], int64(i))
		})
	}
}

func (c fleetCell) run(t *testing.T, want []byte, seed int64) {
	copts := CoordinatorOptions{Spec: c.spec, LeaseTTL: 2 * time.Second}
	// Undisturbed fleets re-run every shard as an audit and byte-compare it:
	// audits contribute verification, never data. An audit waits for a
	// worker other than the shard's, or a TTL, so one worker audits nothing.
	audited := c.dis == "none" && c.workers > 1
	if audited {
		copts.AuditFraction = 1
	}
	switch c.dis {
	case "worker-death":
		// Short, so that waiting out the victim's lease costs little.
		copts.LeaseTTL = 100 * time.Millisecond
	case "coordinator-restart":
		// A long-poll held by the first coordinator lasts a quarter TTL.
		copts.StatePath, copts.LeaseTTL = filepath.Join(t.TempDir(), "coordinator.json"), 400*time.Millisecond
	}
	coord, err := NewCoordinator(copts)
	if err != nil {
		t.Fatal(err)
	}
	h := coord.Handler()
	var proxy *restartProxy
	switch {
	case c.dis == "coordinator-restart":
		// The restart comes at the third accepted report: a point in the
		// campaign, not a moment.
		proxy = &restartProxy{t: t, first: coord, opts: copts, n: 3, replaced: make(chan *Coordinator, 1), h: h}
		h = proxy
	case c.dis == "none" && c.chaos < 0:
		// Every worker must contribute, so none starts a shard before all of
		// them hold a lease: a campaign of milliseconds is otherwise over
		// before the last worker's first request is served.
		h = gateFirstLeases(h, min(c.workers, c.spec.Shards))
	}
	var profile *chaosProfile
	if c.chaos >= 0 {
		// Server-side chaos rides the same profile on its own stream.
		profile = &chaosProfiles[c.chaos].p
		h = chaosMiddleware(1000+seed, *profile, h)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	if c.dis == "worker-death" {
		killWorker(t, srv, coord)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	wait := startFleet(ctx, t, srv.URL, c.workers, "w", profile, 100*seed)
	if proxy != nil {
		// The workers finish against the replacement, which resumes from
		// the persisted checkpoints and leases.
		select {
		case coord = <-proxy.replaced:
			if coord == nil {
				return
			}
		case <-ctx.Done():
			t.Fatalf("no restart: %v (status %+v)", ctx.Err(), coord.Status())
		}
		if st := coord.Status(); st.Experiments == 0 {
			t.Error("the restarted coordinator resumed with zero experiments: the persisted checkpoints were lost")
		}
	}
	res, err := coord.Result(ctx)
	if err != nil {
		t.Fatalf("%v (status %+v)", err, coord.Status())
	}
	wait()
	requireSameJSON(t, "StudyResult", want, res)

	st := coord.Status()
	a := st.Telemetry.Audit
	switch {
	case !st.Completed || st.Shards.Done != c.spec.Shards:
		t.Errorf("terminal status = %+v", st)
	case audited && (a == nil || a.Passed != int64(c.spec.Shards) || a.Failed+a.Pending != 0):
		t.Errorf("audits = %+v, want all %d passed", a, c.spec.Shards)
	case c.dis == "worker-death" && st.Expired < 1:
		t.Errorf("expired leases = %d, want the victim's", st.Expired)
	case c.dis == "none" && c.chaos < 0 && len(st.Telemetry.Sources) != c.workers:
		t.Errorf("telemetry from %d sources, want all %d workers", len(st.Telemetry.Sources), c.workers)
	}
	if c.chaos < 0 {
		// The result endpoint serves the same bytes.
		resp, err := http.Get(srv.URL + "/v1/result")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if body, err := io.ReadAll(resp.Body); err != nil || !bytes.Equal(bytes.TrimSpace(body), want) {
			t.Errorf("/v1/result served %s (%v), want %s", body, err, want)
		}
	}
}

// killWorker plays a worker that leases a shard, streams a mid-shard
// checkpoint as a heartbeat and dies without a final report; its first
// heartbeat, the state it started from, arrives late and must not roll the
// shard back. A shard takes milliseconds, too short to catch between two
// heartbeats, so the victim's context cancels itself after a fixed number of
// the engine's per-experiment checks instead.
func killWorker(t *testing.T, srv *httptest.Server, c *Coordinator) {
	t.Helper()
	if c.spec.TargetCI > 0 {
		// An adaptive campaign plans its first round once every shard has
		// parked at the barrier, which a fresh shard does at once: park them
		// all, so the victim's shard has experiments to run.
		finishShards(t, srv, c, c.spec, "victim", c.spec.Shards)
	}
	w, err := c.spec.BuildWorkload()
	if err != nil {
		t.Fatal(err)
	}
	var reply LeaseReply
	postJSON(t, srv.URL+"/v1/lease", LeaseRequest{Worker: "victim"}, &reply)
	l := reply.Lease
	if l == nil {
		t.Fatal("no lease granted to the victim")
	}
	vctx := &countdownCtx{Context: context.Background()}
	vctx.left.Store(20)
	mid, err := campaign.RunShard(vctx, c.cfg, w, c.spec.Options(), campaign.ShardRun{Index: l.Shard, Resume: l.Resume})
	if !errors.Is(err, context.Canceled) || mid.Experiments == 0 || mid.Done {
		t.Fatalf("the victim stopped at %d experiments (done=%v, err=%v), want a mid-shard cancellation", mid.Experiments, mid.Done, err)
	}
	start := campaign.NewShardCheckpoint(l.Shard)
	if l.Resume != nil {
		start = *l.Resume
	}
	for _, sc := range []campaign.ShardCheckpoint{mid, start} {
		var rep ReportReply
		postJSON(t, srv.URL+"/v1/report", ReportRequest{Worker: "victim", LeaseID: l.ID, Shard: sc}, &rep)
		if !rep.OK {
			t.Fatalf("the victim's heartbeat was refused: %+v", rep)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if got := c.table.sched.Checkpoint(l.Shard).Experiments; got != mid.Experiments {
		t.Errorf("a late heartbeat rolled shard %d back to %d experiments, want %d", l.Shard, got, mid.Experiments)
	}
}
