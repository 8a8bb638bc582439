package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"fidelity/internal/accel"
)

// TestSchedule holds the Schedule to each of its transitions on real shard
// checkpoints: three shards of a flat adaptive campaign, each parked after
// executing round 0 (base). Every case rearranges a deep copy of that fixture.
// The two packages' TestConformance suites are the differential that Study
// and the coordinator drive it alike; this is the type's own contract.
func TestSchedule(t *testing.T) {
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
	ptrs := func(sc []ShardCheckpoint) []*ShardCheckpoint {
		out := make([]*ShardCheckpoint, len(sc))
		for i := range sc {
			out[i] = &sc[i]
		}
		return out
	}
	statuses := func(s *Schedule) []ShardStatus {
		out := make([]ShardStatus, shards)
		for i := range out {
			out[i] = s.Status(i)
		}
		return out
	}
	round0, _ := PlanRound(strata, nil, StrataTallies(strata, make([]ShardCheckpoint, shards)), tight)
	base := make([]ShardCheckpoint, shards)
	for i := range base {
		base[i] = NewShardCheckpoint(i)
		base[i].Adaptive = &AdaptiveShardState{History: [][]int{round0}}
		base[i] = run(base[i])
		if !adaptiveParked(base[i]) || base[i].Experiments == 0 {
			t.Fatalf("fixture shard %d is not parked after round 0: %+v", i, base[i])
		}
	}

	// barrier checks the schedule after a barrier planned from before, in
	// which the parked shards were rewritten and every other shard left as it
	// was. in holds the values the caller handed over: nothing may be written
	// through them.
	barrier := func(t *testing.T, s *Schedule, target float64, in, before []ShardCheckpoint, parked []bool) {
		t.Helper()
		history := AdaptiveHistory(before)
		tallies := StrataTallies(strata, before)
		next, converged := PlanRound(strata, history, tallies, target)
		if got, want := s.Strata(), strataTelemetry(strata, tallies, history, target); got == nil || !reflect.DeepEqual(*got, want) {
			t.Errorf("telemetry block = %+v, want the pre-barrier block %+v", got, want)
		}
		for i := range in {
			if !bytes.Equal(blob(in[i]), blob(before[i])) {
				t.Errorf("shard %d: the schedule wrote through the caller's checkpoint", i)
			}
		}
		for i := range before {
			got := blob(*s.Checkpoint(i))
			if !parked[i] {
				if !bytes.Equal(got, blob(before[i])) {
					t.Errorf("shard %d is not parked but was rewritten:\n%s\n%s", i, blob(before[i]), got)
				}
				continue
			}
			if converged {
				// The canonical done form: what the shard itself returns
				// when it replays the campaign's Final history from nothing.
				if want := blob(run(*AdaptiveAuditResume(i, history))); s.Status(i) != ShardDone || !bytes.Equal(got, want) {
					t.Errorf("shard %d finalised to %v\n%s\nits own Final replay returns\n%s", i, s.Status(i), got, want)
				}
				continue
			}
			want := before[i]
			want.Adaptive = &AdaptiveShardState{Round: before[i].Adaptive.Round, History: append(CloneHistory(history), next)}
			if s.Status(i) != ShardPending || !bytes.Equal(got, blob(want)) {
				t.Errorf("shard %d extended to %v\n%s\nwant pending, its parked state plus PlanRound's row\n%s", i, s.Status(i), got, blob(want))
			}
		}
	}
	all := []bool{true, true, true}

	for _, tc := range []struct {
		name string
		test func(t *testing.T)
	}{
		{"grant lowest pending, held lease, release", func(t *testing.T) {
			fixed := StudyOptions{Samples: 24, Inputs: inputs, Shards: shards}
			s := NewSchedule(nil, fixed, nil, []ShardStatus{ShardPending, ShardPending, ShardRunning})
			if i, ok := s.Grant(); !ok || i != 0 {
				t.Fatalf("first grant = %d, %v", i, ok)
			}
			if i, ok := s.Grant(); !ok || i != 1 {
				t.Fatalf("second grant = %d, %v", i, ok)
			}
			if _, ok := s.Grant(); ok {
				t.Fatal("granted with every shard running")
			}
			streamed := base[0]
			s.Progress(0, streamed)
			s.Release(0)
			if s.Status(0) != ShardPending || !bytes.Equal(blob(*s.Checkpoint(0)), blob(streamed)) {
				t.Fatalf("released shard 0 = %v %+v, want pending with its streamed checkpoint", s.Status(0), s.Checkpoint(0))
			}
			s.Release(0) // a pending shard stays pending
			if i, ok := s.Grant(); !ok || i != 0 {
				t.Fatalf("grant after release = %d, %v, want shard 0 again", i, ok)
			}
			if s.Checkpoint(1) != nil || s.Finished() {
				t.Fatal("a shard that never reported has a checkpoint, or the campaign finished")
			}
		}},
		{"report: done, degraded, given back, parked", func(t *testing.T) {
			in := clone(base)
			done := clone(base)[0]
			FinalizeAdaptiveShard(&done, inputs)
			handBack := in[2]
			handBack.Adaptive = &AdaptiveShardState{Round: 0, History: [][]int{round0}}
			handBack.Cursor = Cursor{Input: 1, Model: 2, Sample: 3}
			s := NewSchedule(strata, opts, nil, nil)
			for i := 0; i < shards; i++ {
				s.Grant()
			}
			for i, r := range []struct {
				sc        ShardCheckpoint
				exhausted bool
				want      ShardStatus
			}{{done, false, ShardDone}, {in[1], true, ShardDegraded}, {handBack, false, ShardPending}} {
				s.Report(i, r.sc, r.exhausted)
				if s.Status(i) != r.want || !bytes.Equal(blob(*s.Checkpoint(i)), blob(r.sc)) {
					t.Fatalf("shard %d reported: %v %s, want %v with the reported checkpoint", i, s.Status(i), blob(*s.Checkpoint(i)), r.want)
				}
			}
			if s.Strata() != nil {
				t.Fatal("a barrier ran with a shard pending")
			}
			if i, _ := s.Grant(); i != 2 {
				t.Fatalf("re-grant = %d, want the handed-back shard", i)
			}
			s.Report(2, in[2], false)
			barrier(t, s, tight, nil, []ShardCheckpoint{done, in[1], in[2]}, []bool{false, false, true})
			if want := []ShardStatus{ShardDone, ShardDegraded, ShardPending}; !slices.Equal(statuses(s), want) || s.Finished() {
				t.Errorf("statuses %v, want %v", statuses(s), want)
			}
		}},
		{"empty campaign plans round 0", func(t *testing.T) {
			s := NewSchedule(strata, opts, nil, nil)
			var before []ShardCheckpoint
			for i := 0; i < shards; i++ {
				s.Grant()
				before = append(before, run(NewShardCheckpoint(i)))
				s.Report(i, before[i], false)
			}
			barrier(t, s, tight, nil, before, all)
			if n := s.Strata().Rounds; n != 0 {
				t.Errorf("the last park planned after %d rounds, want 0", n)
			}
			if got := s.Checkpoint(0).Adaptive.History; !reflect.DeepEqual(got, [][]int{round0}) {
				t.Errorf("planned history %v, want [round0]", got)
			}
		}},
		{"unconverged round is extended", func(t *testing.T) {
			// A lease held across a restart does not outrank the parked
			// checkpoint its shard reported.
			in := clone(base)
			s := NewSchedule(strata, opts, ptrs(in), []ShardStatus{ShardRunning, ShardPending, ShardPending})
			barrier(t, s, tight, in, clone(base), all)
		}},
		{"degraded shard with a short history is merged, not written", func(t *testing.T) {
			in := clone(base)
			in[2].Adaptive = &AdaptiveShardState{}
			in[2].Cursor = Cursor{Input: 1, Model: 2, Sample: 5}
			before := clone(in)
			s := NewSchedule(strata, opts, ptrs(in), []ShardStatus{ShardPending, ShardPending, ShardDegraded})
			barrier(t, s, tight, in, before, []bool{true, true, false})
			if s.Status(2) != ShardDegraded {
				t.Errorf("degraded shard is %v", s.Status(2))
			}
		}},
		{"converged campaign leaves a degraded shard alone", func(t *testing.T) {
			in := clone(base)
			in[1].Cursor = Cursor{Model: 3, Sample: 1}
			before := clone(in)
			converging := opts
			converging.TargetCI = loose
			s := NewSchedule(strata, converging, ptrs(in), []ShardStatus{ShardPending, ShardDegraded, ShardPending})
			barrier(t, s, loose, in, before, []bool{true, false, true})
			if !s.Finished() || s.Status(1) != ShardDegraded {
				t.Errorf("statuses %v, want finished with shard 1 degraded", statuses(s))
			}
		}},
		{"converged campaign is finalised", func(t *testing.T) {
			in := clone(base)
			converging := opts
			converging.TargetCI = loose
			s := NewSchedule(strata, converging, ptrs(in), nil)
			barrier(t, s, loose, in, clone(base), all)
			if !s.Finished() {
				t.Errorf("statuses %v, want all done", statuses(s))
			}
		}},
		{"parked shard with a short history is healed", func(t *testing.T) {
			// A checkpoint saved while a barrier's rewrite was half applied:
			// shards 0 and 2 already carry round 1, shard 1 is still parked
			// after round 0.
			round1, _ := PlanRound(strata, [][]int{round0}, StrataTallies(strata, base), tight)
			in := clone(base)
			for _, i := range []int{0, 2} {
				in[i].Adaptive.History = [][]int{round0, round1}
			}
			before := clone(in)
			s := NewSchedule(strata, opts, ptrs(in), nil)
			if s.Strata() != nil || !slices.Equal(statuses(s), []ShardStatus{ShardPending, ShardPending, ShardPending}) {
				t.Fatalf("statuses %v (barrier %v), want all pending and no barrier", statuses(s), s.Strata())
			}
			want := before[1]
			want.Adaptive = &AdaptiveShardState{Round: 1, History: [][]int{round0, round1}}
			for i, w := range []ShardCheckpoint{before[0], want, before[2]} {
				if got := blob(*s.Checkpoint(i)); !bytes.Equal(got, blob(w)) {
					t.Errorf("shard %d restored as\n%s\nwant\n%s", i, got, blob(w))
				}
				if !bytes.Equal(blob(in[i]), blob(before[i])) {
					t.Errorf("shard %d: healing wrote through the caller's checkpoint", i)
				}
			}
		}},
	} {
		t.Run(tc.name, tc.test)
	}
}
