package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fidelity/internal/campaign"
	"fidelity/internal/telemetry"
)

// finishShards hand-drives n shards to completion over the wire as worker,
// returning the last granted lease's shard indices.
func finishShards(t *testing.T, srv *httptest.Server, c *Coordinator, spec CampaignSpec, worker string, n int) []int {
	t.Helper()
	w, err := spec.BuildWorkload()
	if err != nil {
		t.Fatal(err)
	}
	done := make([]int, 0, n)
	for i := 0; i < n; i++ {
		var reply LeaseReply
		postJSON(t, srv.URL+"/v1/lease", LeaseRequest{Worker: worker}, &reply)
		if reply.Lease == nil {
			t.Fatalf("no lease granted for shard run %d", i)
		}
		sc, err := campaign.RunShard(context.Background(), c.cfg, w, spec.Options(), campaign.ShardRun{
			Index:  reply.Lease.Shard,
			Resume: reply.Lease.Resume,
		})
		if err != nil {
			t.Fatal(err)
		}
		var rep ReportReply
		postJSON(t, srv.URL+"/v1/report", ReportRequest{Worker: worker, LeaseID: reply.Lease.ID, Shard: sc, Final: true}, &rep)
		if !rep.OK {
			t.Fatalf("final report for shard %d rejected", reply.Lease.Shard)
		}
		done = append(done, reply.Lease.Shard)
	}
	return done
}

// TestCoordinatorStateCorruptQuarantine: a persisted state file whose sealed
// payload was corrupted on disk, or whose envelope was stripped, must be
// *detected* at startup, quarantined aside for inspection, and counted in
// telemetry — and the restarted campaign must converge to the byte-identical
// baseline from scratch, never silently resume from unverifiable bytes.
func TestCoordinatorStateCorruptQuarantine(t *testing.T) {
	spec := chaosSpec()
	want := baselineJSON(t, spec)

	// restart runs two shards, damages the persisted state with corrupt, and
	// restarts the coordinator on it: the damage must be quarantined and the
	// campaign start clean.
	restart := func(corrupt func(statePath string)) *Coordinator {
		t.Helper()
		statePath := filepath.Join(t.TempDir(), "coordinator.json")
		copts := CoordinatorOptions{Spec: spec, LeaseTTL: 2 * time.Second, StatePath: statePath}
		c1, err := NewCoordinator(copts)
		if err != nil {
			t.Fatal(err)
		}
		srv1 := httptest.NewServer(c1.Handler())
		finishShards(t, srv1, c1, spec, "early", 2)
		srv1.Close()
		corrupt(statePath)

		tel := telemetry.New()
		copts.Telemetry = tel
		c2, err := NewCoordinator(copts)
		if err != nil {
			t.Fatalf("corrupt state must be quarantined, not fatal: %v", err)
		}
		if _, err := os.Stat(statePath + ".corrupt"); err != nil {
			t.Errorf("quarantine file missing: %v", err)
		}
		if st := c2.Status(); st.Experiments != 0 {
			t.Errorf("restarted coordinator resumed %d experiments from corrupt state, want a clean start", st.Experiments)
		}
		snap := tel.Snapshot()
		if snap.Recovery == nil || snap.Recovery.CorruptArtifacts == 0 {
			t.Errorf("corrupt artifact not counted in telemetry: %+v", snap.Recovery)
		}
		return c2
	}

	// A valid payload stripped of its envelope is unverifiable, not legacy:
	// every writer seals, so loading it would let tampering through.
	restart(func(statePath string) {
		var st coordinatorState
		if err := campaign.ReadSealedJSON(statePath, &st); err != nil {
			t.Fatal(err)
		}
		if err := campaign.AtomicWriteJSON(statePath, &st); err != nil {
			t.Fatal(err)
		}
	})

	// Flip payload content without breaking the JSON: the envelope checksum
	// must catch it.
	c2 := restart(func(statePath string) {
		blob, err := os.ReadFile(statePath)
		if err != nil {
			t.Fatal(err)
		}
		mutated := bytes.Replace(blob, []byte(`"seq"`), []byte(`"sEq"`), 1)
		if bytes.Equal(mutated, blob) {
			t.Fatal("corruption mutation found nothing to replace")
		}
		if err := os.WriteFile(statePath, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
	})

	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	res := finish(t, srv2.URL, c2, 2)
	requireSameJSON(t, "result after quarantine", want, res)
}

// TestCoordinatorStatePerShardCorruption: in a state file whose envelope
// verifies (the damage predates the last seal — e.g. memory corruption
// between acceptance and persist), a tampered shard checkpoint must still be
// detected against the digest recorded at acceptance, dropped, and re-issued
// — while the intact shards resume untouched. The campaign still converges
// byte-identical.
func TestCoordinatorStatePerShardCorruption(t *testing.T) {
	spec := chaosSpec()
	want := baselineJSON(t, spec)
	statePath := filepath.Join(t.TempDir(), "coordinator.json")
	copts := CoordinatorOptions{Spec: spec, LeaseTTL: 2 * time.Second, StatePath: statePath}

	c1, err := NewCoordinator(copts)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(c1.Handler())
	done := finishShards(t, srv1, c1, spec, "early", 2)
	srv1.Close()

	// Tamper one shard's tallies and re-seal, so the envelope checksum
	// passes. Only the per-shard acceptance digest can catch this.
	var st coordinatorState
	if err := campaign.ReadSealedJSON(statePath, &st); err != nil {
		t.Fatal(err)
	}
	st.Checkpoint.Shard[done[0]].Experiments += 7
	if err := campaign.AtomicWriteSealedJSON(statePath, &st); err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New()
	copts.Telemetry = tel
	c2, err := NewCoordinator(copts)
	if err != nil {
		t.Fatal(err)
	}
	stat := c2.Status()
	if stat.Shards.Done != 1 {
		t.Errorf("done shards after per-shard corruption = %d, want 1 (tampered shard dropped, intact shard kept)", stat.Shards.Done)
	}
	snap := tel.Snapshot()
	if snap.Recovery == nil || snap.Recovery.CorruptArtifacts != 1 {
		t.Errorf("corrupt artifacts counted = %+v, want exactly 1", snap.Recovery)
	}

	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	res := finish(t, srv2.URL, c2, 2)
	requireSameJSON(t, "result after per-shard recovery", want, res)
}

// TestCoordinatorStateMisplacedShardRefused: a state file whose envelope and
// identity verify but whose shard checkpoints do not sit at their own indices
// (hand-edited, or written by a broken tool) is refused, like a state file of
// another campaign — not resumed into one shard's tallies counted twice, and
// not quarantined as corrupt either.
func TestCoordinatorStateMisplacedShardRefused(t *testing.T) {
	spec := chaosSpec()
	statePath := filepath.Join(t.TempDir(), "coordinator.json")
	copts := CoordinatorOptions{Spec: spec, LeaseTTL: 2 * time.Second, StatePath: statePath}
	c1, err := NewCoordinator(copts)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(c1.Handler())
	done := finishShards(t, srv1, c1, spec, "early", 1)
	srv1.Close()

	var st coordinatorState
	if err := campaign.ReadSealedJSON(statePath, &st); err != nil {
		t.Fatal(err)
	}
	last := spec.Shards - 1
	sh := st.Checkpoint.Shard
	sh[done[0]], sh[last] = sh[last], sh[done[0]]
	if err := campaign.AtomicWriteSealedJSON(statePath, &st); err != nil {
		t.Fatal(err)
	}
	_, err = NewCoordinator(copts)
	if err == nil || errors.Is(err, campaign.ErrCorruptArtifact) || !strings.Contains(err.Error(), "refusing to resume") {
		t.Fatalf("NewCoordinator on misplaced shards = %v, want a refusal", err)
	}
	if _, err := os.Stat(statePath + ".corrupt"); !os.IsNotExist(err) {
		t.Errorf("refused state was quarantined (%v); it should stay where the operator left it", err)
	}
}

// TestCoordinatorStateParentWrittenResumes: testdata/parent-adaptive.state.json
// was written by the coordinator of the commit before campaign.Schedule, in
// the middle of roundsSpec's first round: shards 0–4 parked at the barrier,
// shard 5 leased after one streamed heartbeat, shards 6–7 leased and silent,
// every deadline long past. It must load, re-issue the three lapsed shards
// from what they streamed, and finish byte-equal to an in-process Study.
func TestCoordinatorStateParentWrittenResumes(t *testing.T) {
	spec := roundsSpec()
	want := baselineJSON(t, spec)
	blob, err := os.ReadFile(filepath.Join("testdata", "parent-adaptive.state.json"))
	if err != nil {
		t.Fatal(err)
	}
	statePath := filepath.Join(t.TempDir(), "coordinator.json")
	if err := os.WriteFile(statePath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(CoordinatorOptions{Spec: spec, LeaseTTL: 2 * time.Second, StatePath: statePath})
	if err != nil {
		t.Fatalf("state written by the parent commit must resume: %v", err)
	}
	if st := c.Status(); st.Shards.Waiting != 5 || st.Shards.Pending != 3 || st.Expired != 3 || st.Experiments == 0 {
		t.Errorf("resume status = %+v (expired %d, %d experiments), want 5 parked and 3 lapsed shards", st.Shards, st.Expired, st.Experiments)
	}

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	res := finish(t, srv.URL, c, 2)
	requireSameJSON(t, "result resumed from the parent's state", want, res)
}

// TestCoordinatorStateParentSpecResumes: a sealed state file written by the
// previous release, whose spec still carries the retired execution knobs
// ("experiment_batch", "disable_replay"), must resume — they were never part
// of the campaign identity — and finish byte-identical to the baseline. The
// previous release refused its own file whenever it was restarted with a
// different -batch or -no-replay, because the spec comparison covered them.
func TestCoordinatorStateParentSpecResumes(t *testing.T) {
	spec := chaosSpec()
	want := baselineJSON(t, spec)
	statePath := filepath.Join(t.TempDir(), "coordinator.json")
	copts := CoordinatorOptions{Spec: spec, LeaseTTL: 2 * time.Second, StatePath: statePath}

	c1, err := NewCoordinator(copts)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(c1.Handler())
	finishShards(t, srv1, c1, spec, "early", 2)
	srv1.Close()

	// Splice the retired keys into the persisted spec, keeping every other
	// byte of the payload, and re-seal.
	var st, specJSON map[string]json.RawMessage
	if err := campaign.ReadSealedJSON(statePath, &st); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(st["spec"], &specJSON); err != nil {
		t.Fatal(err)
	}
	specJSON["experiment_batch"] = json.RawMessage("64")
	specJSON["disable_replay"] = json.RawMessage("true")
	if st["spec"], err = json.Marshal(specJSON); err != nil {
		t.Fatal(err)
	}
	if err := campaign.AtomicWriteSealedJSON(statePath, st); err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New()
	copts.Telemetry = tel
	c2, err := NewCoordinator(copts)
	if err != nil {
		t.Fatalf("state written by the previous release must resume: %v", err)
	}
	if st := c2.Status(); st.Shards.Done != 2 || st.Experiments == 0 {
		t.Errorf("resume status = %+v, want both finished shards kept", st.Shards)
	}
	if snap := tel.Snapshot(); snap.Recovery != nil && snap.Recovery.CorruptArtifacts != 0 {
		t.Errorf("previous-release file miscounted as corrupt: %+v", snap.Recovery)
	}

	srv2 := httptest.NewServer(c2.Handler())
	defer srv2.Close()
	res := finish(t, srv2.URL, c2, 2)
	requireSameJSON(t, "result resumed from the previous release's state", want, res)
}
