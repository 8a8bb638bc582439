package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecordAndSnapshot(t *testing.T) {
	c := New()
	c.RecordExperiment("cbuf2mac/input", OutcomeMasked)
	c.RecordExperiment("cbuf2mac/input", OutcomeOutputError)
	c.RecordExperiment("global-control", OutcomeSystemAnomaly)
	c.RecordExperiment("global-control", "weird")
	s := c.Snapshot()
	if s.Experiments != 4 {
		t.Errorf("experiments = %d", s.Experiments)
	}
	in := s.Models["cbuf2mac/input"]
	if in != (OutcomeCounts{Masked: 1, OutputError: 1}) {
		t.Errorf("input tallies: %+v", in)
	}
	gc := s.Models["global-control"]
	if gc.SystemAnomaly != 1 || gc.Other != 1 {
		t.Errorf("global tallies: %+v", gc)
	}
	if s.PerSec <= 0 {
		t.Errorf("rate = %v", s.PerSec)
	}
	if len(s.Models) != 2 {
		t.Errorf("models: %v", s.Models)
	}
}

func TestPhases(t *testing.T) {
	c := New()
	c.StartPhase("trace")
	time.Sleep(5 * time.Millisecond)
	c.EndPhase("trace")
	c.StartPhase("inject")
	s := c.Snapshot()
	if len(s.Phases) != 2 {
		t.Fatalf("phases: %+v", s.Phases)
	}
	if s.Phases[0].Name != "trace" || s.Phases[0].Seconds <= 0 || s.Phases[0].Running {
		t.Errorf("trace phase: %+v", s.Phases[0])
	}
	if s.Phases[1].Name != "inject" || !s.Phases[1].Running {
		t.Errorf("inject phase: %+v", s.Phases[1])
	}
	// Re-entering accumulates rather than resetting.
	c.EndPhase("inject")
	before := c.Snapshot().Phases[1].Seconds
	c.StartPhase("inject")
	time.Sleep(2 * time.Millisecond)
	c.EndPhase("inject")
	if after := c.Snapshot().Phases[1].Seconds; after <= before {
		t.Errorf("inject did not accumulate: %v -> %v", before, after)
	}
	// Unbalanced EndPhase is a no-op.
	c.EndPhase("nope")
	c.EndPhase("trace")
	c.EndPhase("trace")
}

func TestRateSince(t *testing.T) {
	prev := Snapshot{ElapsedSec: 1, Experiments: 100}
	cur := Snapshot{ElapsedSec: 3, Experiments: 300}
	if r := cur.RateSince(prev); r != 100 {
		t.Errorf("interval rate = %v", r)
	}
	if r := prev.RateSince(cur); r != 0 {
		t.Errorf("inverted window rate = %v", r)
	}
}

func TestSnapshotJSON(t *testing.T) {
	c := New()
	c.RecordExperiment("m", OutcomeMasked)
	c.StartPhase("inject")
	blob, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Experiments != 1 || back.Models["m"].Masked != 1 {
		t.Errorf("round trip: %+v", back)
	}
}

// TestRecoveryCounters: the supervision layer's quarantine, retry, and
// failure-budget counters must surface in the snapshot — and only when the
// campaign actually survived something, so clean-run snapshots are unchanged.
func TestRecoveryCounters(t *testing.T) {
	c := New()
	if c.Snapshot().Recovery != nil {
		t.Fatal("clean collector carries a recovery snapshot")
	}

	c.RecordExperiment("local-control", OutcomeFrameworkFault)
	c.RecordQuarantine(3, ReasonPanic)
	c.RecordQuarantine(3, ReasonPanic)
	c.RecordQuarantine(7, ReasonTimeout)
	c.RecordIORetry()
	c.SetShardBudget(7, 1, 16, false)
	c.SetShardBudget(3, 2, 16, false)
	c.SetShardBudget(3, 3, 2, true)

	s := c.Snapshot()
	if s.Models["local-control"].FrameworkFault != 1 {
		t.Errorf("framework-fault outcome tally: %+v", s.Models["local-control"])
	}
	rec := s.Recovery
	if rec == nil {
		t.Fatal("recovery snapshot missing after quarantines")
	}
	if rec.Quarantined != 3 || rec.PanicsRecovered != 2 || rec.Timeouts != 1 || rec.IORetries != 1 {
		t.Errorf("recovery counters: %+v", rec)
	}
	if len(rec.Shards) != 2 || rec.Shards[0].Shard != 3 || rec.Shards[1].Shard != 7 {
		t.Fatalf("shard budget states not sorted ascending: %+v", rec.Shards)
	}
	if s3 := rec.Shards[0]; s3.Failures != 3 || s3.Budget != 2 || !s3.Exhausted {
		t.Errorf("shard 3 budget state (last write wins): %+v", s3)
	}
	if s7 := rec.Shards[1]; s7.Failures != 1 || s7.Budget != 16 || s7.Exhausted {
		t.Errorf("shard 7 budget state: %+v", s7)
	}
}

// TestRecoveryJSON: the recovery block must round-trip through JSON and be
// omitted entirely from clean snapshots.
func TestRecoveryJSON(t *testing.T) {
	c := New()
	c.RecordExperiment("m", OutcomeMasked)
	blob, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if bytes := string(blob); strings.Contains(bytes, "recovery") {
		t.Errorf("clean snapshot serializes a recovery block: %s", bytes)
	}

	c.RecordQuarantine(0, ReasonTimeout)
	blob, err = json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Recovery == nil || back.Recovery.Timeouts != 1 || back.Recovery.Quarantined != 1 {
		t.Errorf("recovery round trip: %+v", back.Recovery)
	}
}

// Concurrent recording from many goroutines with snapshots interleaved —
// exercised under -race in CI.
func TestConcurrentRecording(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.RecordExperiment("m", OutcomeMasked)
				if i%100 == 0 {
					c.StartPhase("p")
					c.RecordQuarantine(g, ReasonPanic)
					c.RecordIORetry()
					c.SetShardBudget(g, i/100+1, 16, false)
					c.Snapshot()
					c.EndPhase("p")
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Experiments(); n != 4000 {
		t.Errorf("experiments = %d", n)
	}
}
