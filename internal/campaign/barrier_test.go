package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"fidelity/internal/accel"
)

// RoundBarrier alone, on real shard checkpoints: three shards of a flat
// adaptive campaign, each parked after executing round 0. Every case
// rearranges a deep copy of that fixture, runs the barrier once and checks
// what it wrote — and what it must not touch. The TestAdaptive*,
// TestDistribAdaptive*, chaos and audit suites are the differential that the
// two callers of the barrier agree; this is the function's own contract.
func TestRoundBarrier(t *testing.T) {
	const (
		shards = 3
		inputs = 2
		tight  = 0.05 // not reached by round 0's 32 samples per stratum
		loose  = 0.5  // reached by any executed round
	)
	w := engineWorkload(t)
	opts := StudyOptions{TargetCI: tight, Inputs: inputs, Tolerance: 0.1, Seed: 9, Shards: shards}
	strata, err := CampaignStrata(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewShardRunner(accel.NVDLASmall(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	run := func(resume ShardCheckpoint) ShardCheckpoint {
		t.Helper()
		sc, err := runner.Run(context.Background(), ShardRun{Index: resume.Index, Resume: &resume})
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	fresh := func() []ShardCheckpoint {
		out := make([]ShardCheckpoint, shards)
		for i := range out {
			out[i] = NewShardCheckpoint(i)
			out[i].Adaptive = &AdaptiveShardState{}
		}
		return out
	}
	round0, converged := PlanRound(strata, nil, StrataTallies(strata, fresh()), tight)
	if converged {
		t.Fatal("an empty campaign cannot be converged")
	}
	base := fresh()
	for i := range base {
		base[i].Adaptive.History = [][]int{round0}
		base[i] = run(base[i])
		if !AdaptiveParked(base[i]) || base[i].Experiments == 0 {
			t.Fatalf("fixture shard %d is not parked after round 0: %+v", i, base[i])
		}
	}
	clone := func(in []ShardCheckpoint) []ShardCheckpoint {
		t.Helper()
		var out []ShardCheckpoint
		b, err := json.Marshal(in)
		if err == nil {
			err = json.Unmarshal(b, &out)
		}
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	blob := func(sc ShardCheckpoint) []byte {
		t.Helper()
		b, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	for _, tc := range []struct {
		name    string
		target  float64
		arrange func(sc []ShardCheckpoint, parked []bool) []ShardCheckpoint
		// wantRounds is the history length the barrier planned from.
		wantRounds    int
		wantConverged bool
	}{
		{name: "empty campaign plans round 0", target: tight,
			arrange: func([]ShardCheckpoint, []bool) []ShardCheckpoint { return fresh() }},
		{name: "unconverged round is extended", target: tight, wantRounds: 1},
		{name: "degraded shard with a short history is merged, not written", target: tight, wantRounds: 1,
			arrange: func(sc []ShardCheckpoint, parked []bool) []ShardCheckpoint {
				parked[2] = false
				sc[2].Adaptive = &AdaptiveShardState{}
				sc[2].Cursor = Cursor{Input: 1, Model: 2, Sample: 5}
				return sc
			}},
		{name: "done shard is merged, not written", target: tight, wantRounds: 1,
			arrange: func(sc []ShardCheckpoint, parked []bool) []ShardCheckpoint {
				parked[0] = false
				FinalizeAdaptiveShard(&sc[0], inputs)
				return sc
			}},
		{name: "parked shard with a short history is healed", target: tight, wantRounds: 1,
			arrange: func(sc []ShardCheckpoint, parked []bool) []ShardCheckpoint {
				sc[1].Adaptive = &AdaptiveShardState{}
				return sc
			}},
		{name: "converged campaign is finalised", target: loose, wantRounds: 1, wantConverged: true},
		{name: "converged campaign leaves a degraded shard alone", target: loose, wantRounds: 1, wantConverged: true,
			arrange: func(sc []ShardCheckpoint, parked []bool) []ShardCheckpoint {
				parked[1] = false
				sc[1].Cursor = Cursor{Model: 3, Sample: 1}
				return sc
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parked := []bool{true, true, true}
			sc := clone(base)
			if tc.arrange != nil {
				sc = tc.arrange(sc, parked)
			}
			before := clone(sc)
			held := make([]*AdaptiveShardState, len(sc)) // what a concurrent reader of the caller's copy still sees
			for i := range sc {
				held[i] = sc[i].Adaptive
			}
			history := AdaptiveHistory(before)
			tallies := StrataTallies(strata, before)
			next, wantConverged := PlanRound(strata, history, tallies, tc.target)
			if wantConverged != tc.wantConverged {
				t.Fatalf("fixture: PlanRound converged = %v, case wants %v", wantConverged, tc.wantConverged)
			}

			snap, converged := RoundBarrier(strata, sc, parked, inputs, tc.target)
			if converged != tc.wantConverged {
				t.Fatalf("converged = %v, want %v", converged, tc.wantConverged)
			}
			if want := StrataTelemetry(strata, tallies, history, tc.target); !reflect.DeepEqual(snap, want) || snap.Rounds != tc.wantRounds {
				t.Errorf("telemetry block = %+v, want the pre-barrier block %+v with %d rounds", snap, want, tc.wantRounds)
			}
			for i := range sc {
				if !parked[i] {
					if !bytes.Equal(blob(sc[i]), blob(before[i])) {
						t.Errorf("shard %d is not parked but was rewritten:\n%s\n%s", i, blob(before[i]), blob(sc[i]))
					}
					continue
				}
				if !reflect.DeepEqual(held[i], before[i].Adaptive) {
					t.Errorf("shard %d: the barrier wrote through the caller's Adaptive pointer: %+v", i, held[i])
				}
				if converged {
					// The canonical done form: what the shard itself publishes
					// when it replays the campaign's Final history from nothing.
					replayed := run(*AdaptiveAuditResume(i, history))
					if !bytes.Equal(blob(sc[i]), blob(replayed)) {
						t.Errorf("shard %d finalised to\n%s\nits own Final replay publishes\n%s", i, blob(sc[i]), blob(replayed))
					}
					continue
				}
				want := before[i]
				want.Adaptive = &AdaptiveShardState{Round: before[i].Adaptive.Round, History: append(CloneHistory(history), next)}
				if !bytes.Equal(blob(sc[i]), blob(want)) {
					t.Errorf("shard %d extended to\n%s\nwant its parked state plus PlanRound's row\n%s", i, blob(sc[i]), blob(want))
				}
			}
		})
	}
}
