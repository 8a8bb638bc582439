package campaign

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"fidelity/internal/dataset"
	"fidelity/internal/faultmodel"
	"fidelity/internal/model"
	"fidelity/internal/telemetry"
)

// Adaptive stratified sampling (StudyOptions.TargetCI): instead of a fixed
// Samples per fault model, the campaign runs rounds of experiments and stops
// each (layer, fault-model) stratum once its masking estimate's 95% Wilson
// half-width reaches the target. Between rounds the remaining budget is
// re-allocated to the high-variance strata (Neyman allocation).
//
// The determinism design: all stopping and allocation decisions happen only
// at shard barriers — points where every shard has either finished its
// current round, completed, or degraded. The planner (PlanRound) is a pure
// function of the merged shard tallies in canonical stratum order, and its
// decisions are recorded as the per-round allocation History in every
// shard's checkpoint. Shards never plan; they replay the recorded rounds.
// Results are therefore a byte-identical function of (Seed, Shards,
// TargetCI) across any worker count, through interrupt/resume, and through
// the distributed lease protocol.

// adaptiveInitialSamples is round 0's per-stratum allocation (capped at the
// worst-case bound SamplesFor(TargetCI)): enough trials for the Neyman
// weights to see real variance before the budget starts chasing it.
const adaptiveInitialSamples = 32

// Stratum identifies one adaptive sampling stratum: a fault model (index
// into faultmodel.AllIDs) and, in per-layer campaigns, the target layer
// execution. Exec is -1 for network-wide (flat) strata.
type Stratum struct {
	Model int
	Exec  int
}

// AdaptiveShardState is the round state an adaptive campaign records in
// every shard checkpoint.
type AdaptiveShardState struct {
	// Round counts the rounds this shard has fully executed. Round equal to
	// len(History) with a zero cursor means the shard is parked at the round
	// barrier, waiting for the planner.
	Round int `json:"round"`
	// History[r] is round r's campaign-global per-stratum allocation, in
	// canonical stratum order. Every shard carries the full history, so a
	// single shard checkpoint is self-contained for re-lease and audit.
	History [][]int `json:"history,omitempty"`
	// Final marks a converged campaign: once every recorded round has been
	// executed the shard completes instead of parking for another round.
	Final bool `json:"final,omitempty"`
}

// CloneHistory deep-copies a per-round allocation history, preserving nil.
func CloneHistory(h [][]int) [][]int {
	if h == nil {
		return nil
	}
	out := make([][]int, len(h))
	for i, row := range h {
		out[i] = append([]int(nil), row...)
	}
	return out
}

// StrataFor returns the canonical stratum order of a campaign: fault models
// in faultmodel.AllIDs order, and within each model (per-layer mode) the
// layer executions in ascending order. Global-control faults are never
// pinned to a layer, so they keep a single flat stratum in both modes.
func StrataFor(perLayer bool, nexec int) []Stratum {
	ids := faultmodel.AllIDs()
	var strata []Stratum
	for m, id := range ids {
		if perLayer && id != faultmodel.GlobalControl {
			for e := 0; e < nexec; e++ {
				strata = append(strata, Stratum{Model: m, Exec: e})
			}
			continue
		}
		strata = append(strata, Stratum{Model: m, Exec: -1})
	}
	return strata
}

// CampaignStrata derives the stratum list of (w, opts), tracing one clean
// inference for the layer-execution count in per-layer mode — the same trace
// Study and AssembleResult use, so the planner and the shards always agree.
func CampaignStrata(w *model.Workload, opts StudyOptions) ([]Stratum, error) {
	if !opts.PerLayer {
		return StrataFor(false, 0), nil
	}
	x0, err := dataset.Sample(w.Dataset, 0)
	if err != nil {
		return nil, err
	}
	_, execs := w.Net.Trace(x0)
	return StrataFor(true, len(execs)), nil
}

// StrataTallies merges the shard checkpoints' Proportion accumulators into
// one tally per stratum, in canonical stratum order. Map lookups are by
// fixed key, so the result is independent of map iteration order.
func StrataTallies(strata []Stratum, shards []ShardCheckpoint) []Proportion {
	ids := faultmodel.AllIDs()
	out := make([]Proportion, len(strata))
	for si, st := range strata {
		id := ids[st.Model]
		for _, sc := range shards {
			var p Proportion
			if st.Exec < 0 {
				p = sc.Masked[id]
			} else if st.Exec < len(sc.PerLayer) && sc.PerLayer[st.Exec] != nil {
				p = sc.PerLayer[st.Exec][id]
			}
			out[si].merge(p)
		}
	}
	return out
}

// allocatedTotals sums the history's per-stratum allocations.
func allocatedTotals(nstrata int, history [][]int) []int {
	allocated := make([]int, nstrata)
	for _, row := range history {
		for s := 0; s < nstrata && s < len(row); s++ {
			allocated[s] += row[s]
		}
	}
	return allocated
}

// strataActive marks the strata that still need experiments: the observed
// half-width misses the target and the worst-case bound is not yet spent.
// Termination is guaranteed by the *allocated* count (monotone across
// rounds), not the executed count — a degraded shard that never runs its
// allocation must not keep the campaign planning forever.
func strataActive(tallies []Proportion, allocated []int, bound int, targetCI float64) []bool {
	active := make([]bool, len(tallies))
	for s := range tallies {
		if allocated[s] >= bound {
			continue
		}
		if allocated[s] > 0 && tallies[s].HalfWidth() <= targetCI {
			continue
		}
		active[s] = true
	}
	return active
}

// PlanRound computes the next round's per-stratum allocation from the merged
// tallies, or reports convergence. It is a pure function of its arguments —
// evaluated only at the round barrier (Schedule's, under Study and the
// distributed coordinator alike), never by shards, so float arithmetic
// happens at exactly one place per campaign.
//
// Round 0 seeds every stratum with adaptiveInitialSamples. Later rounds
// double the active strata's spent budget and split it by Neyman weights
// sqrt(p̃(1−p̃)) with the Agresti-Coull smoothed estimate p̃ = (s+2)/(n+4),
// rounded by largest remainder (ties to the lower stratum index), with at
// least one experiment per active stratum and a clamp to the worst-case
// per-stratum bound SamplesFor(targetCI).
func PlanRound(strata []Stratum, history [][]int, tallies []Proportion, targetCI float64) (next []int, converged bool) {
	bound := SamplesFor(targetCI)
	allocated := allocatedTotals(len(strata), history)
	active := strataActive(tallies, allocated, bound, targetCI)
	nactive := 0
	for _, a := range active {
		if a {
			nactive++
		}
	}
	if nactive == 0 {
		return nil, true
	}
	next = make([]int, len(strata))
	if len(history) == 0 {
		for s := range strata {
			next[s] = adaptiveInitialSamples
			if next[s] > bound {
				next[s] = bound
			}
		}
		return next, false
	}

	budget := 0
	for s := range strata {
		if active[s] {
			budget += allocated[s]
		}
	}
	if budget < nactive {
		budget = nactive
	}
	weights := make([]float64, len(strata))
	var sumW float64
	for s := range strata {
		if !active[s] {
			continue
		}
		pt := (float64(tallies[s].Successes) + 2) / (float64(tallies[s].Trials) + 4)
		weights[s] = math.Sqrt(pt * (1 - pt)) // strictly positive: pt ∈ (0, 1)
		sumW += weights[s]
	}
	rem := make([]float64, len(strata))
	floors := 0
	var order []int
	for s := range strata {
		if !active[s] {
			continue
		}
		share := float64(budget) * weights[s] / sumW
		f := math.Floor(share)
		next[s] = int(f)
		rem[s] = share - f
		floors += next[s]
		order = append(order, s)
	}
	// Largest-remainder rounding; a stable sort keeps equal remainders in
	// ascending stratum order.
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(rem[b], rem[a]) })
	for j := 0; j < budget-floors && j < len(order); j++ {
		next[order[j]]++
	}
	for s := range strata {
		if !active[s] {
			next[s] = 0
			continue
		}
		if next[s] < 1 {
			next[s] = 1
		}
		if room := bound - allocated[s]; next[s] > room {
			next[s] = room
		}
	}
	return next, false
}

// AdaptiveHistory returns the campaign's allocation history from a set of
// shard checkpoints: the longest recorded history. Shards advance in
// lockstep, so any shorter history (a degraded shard frozen mid-campaign, or
// a periodic checkpoint that caught a barrier append halfway) is a prefix of
// the longest one.
func AdaptiveHistory(shards []ShardCheckpoint) [][]int {
	var history [][]int
	for _, sc := range shards {
		if sc.Adaptive != nil && len(sc.Adaptive.History) > len(history) {
			history = sc.Adaptive.History
		}
	}
	return history
}

// adaptiveParked reports whether sc is parked at a round barrier: every
// recorded round executed, not yet told whether the campaign converged.
func adaptiveParked(sc ShardCheckpoint) bool {
	a := sc.Adaptive
	return a != nil && !sc.Done && !a.Final && sc.Cursor == (Cursor{}) && a.Round == len(a.History)
}

// FinalizeAdaptiveShard mutates a parked shard checkpoint into the canonical
// completed form — the exact bytes the shard itself returns when it replays a
// converged history. The Schedule's barrier applies it to every parked shard
// once the campaign converges.
func FinalizeAdaptiveShard(sc *ShardCheckpoint, inputs int) {
	sc.Done = true
	sc.Cursor = Cursor{Input: inputs}
	sc.Adaptive.Final = true
}

// AdaptiveAuditResume builds the resume state an audit re-run of shard index
// starts from: empty tallies plus the converged campaign's full round
// history with Final set, so the auditor deterministically replays every
// round and must land on a checkpoint byte-identical to the primary's.
func AdaptiveAuditResume(index int, history [][]int) *ShardCheckpoint {
	sc := NewShardCheckpoint(index)
	sc.Adaptive = &AdaptiveShardState{History: CloneHistory(history), Final: true}
	return &sc
}

// ceilDiv is ceil(a/n) for n > 0, clamped at zero for non-positive a.
func ceilDiv(a, n int) int {
	if a <= 0 {
		return 0
	}
	return (a + n - 1) / n
}

// encExec maps a stratum's execution to its Cursor.Exec encoding: flat
// strata use 0, the cursor zero value (per-layer strata of the same model
// never collide with it because global control — the only flat stratum in
// per-layer mode — has no per-layer strata).
func encExec(st Stratum) int {
	if st.Exec < 0 {
		return 0
	}
	return st.Exec
}

// stratumForCursor inverts encExec: the index of the stratum a checkpoint
// cursor points into, or -1.
func stratumForCursor(strata []Stratum, cur Cursor) int {
	for si, st := range strata {
		if st.Model == cur.Model && encExec(st) == cur.Exec {
			return si
		}
	}
	return -1
}

// runAdaptive executes the shard's slice of every recorded adaptive round
// from its cursor, then either completes (Final) or parks at the round
// barrier for the planner. Stratum experiments are dealt round-robin across
// shards: campaign-global experiment g of a stratum runs on shard g mod
// Shards as its per-shard index k = g div Shards, with cursor
// {Input: k mod Inputs, Model, Exec, Sample: k} — unique per shard, so the
// cursor-derived experiment streams never collide and any shard count
// partitions the identical experiment set.
func (sh *shardState) runAdaptive(ctx context.Context) error {
	opts := sh.opts
	shards := opts.shards()
	ids := faultmodel.AllIDs()
	if sh.st.Adaptive == nil {
		sh.st.Adaptive = &AdaptiveShardState{}
	}
	a := sh.st.Adaptive

	nexec := 0
	activeInput := -1
	if opts.PerLayer {
		// The execution count is a function of input 0 alone — the same
		// trace the planner's CampaignStrata uses.
		if err := sh.setInput(0); err != nil {
			return err
		}
		activeInput = 0
		nexec = sh.inj.Executions()
		if sh.st.PerLayer == nil {
			sh.st.PerLayer = cloneLayers(make([]map[faultmodel.ID]Proportion, nexec))
		}
	}
	strata := StrataFor(opts.PerLayer, nexec)
	setIn := func(i int) error {
		if activeInput == i {
			return nil
		}
		if err := sh.setInput(i); err != nil {
			return err
		}
		activeInput = i
		return nil
	}

	for a.Round < len(a.History) {
		alloc := a.History[a.Round]
		// The in-round resume position: checkpoint cursors name the next
		// experiment in (stratum, input, sample) order, and the zero cursor
		// (a fresh round) precedes everything.
		pos := sh.st.Cursor
		posSi := stratumForCursor(strata, pos)
		if posSi < 0 {
			return fmt.Errorf("campaign: shard %d cursor %+v names no stratum of round %d", sh.index, pos, a.Round)
		}
		for si, st := range strata {
			if si < posSi || si >= len(alloc) {
				continue
			}
			base := 0
			for r := 0; r < a.Round; r++ {
				base += a.History[r][si]
			}
			kLo := ceilDiv(base-sh.index, shards)
			kHi := ceilDiv(base+alloc[si]-sh.index, shards)
			if kHi <= kLo {
				continue
			}
			id := ids[st.Model]
			for i := 0; i < opts.Inputs; i++ {
				if si == posSi && i < pos.Input {
					continue
				}
				// First per-shard index of this input's lane (k ≡ i mod Inputs).
				k := kLo + ((i-kLo)%opts.Inputs+opts.Inputs)%opts.Inputs
				if si == posSi && i == pos.Input && pos.Sample > k {
					k = pos.Sample
				}
				if k >= kHi {
					continue
				}
				if err := setIn(i); err != nil {
					return err
				}
				cur := Cursor{Input: i, Model: st.Model, Exec: encExec(st), Sample: k}
				if err := sh.runSamples(ctx, &cur, id, st.Exec, kHi, opts.Inputs); err != nil {
					return err
				}
			}
		}
		a.Round++
		sh.st.Cursor = Cursor{}
	}
	if a.Final {
		// Replaying a converged history ends in the canonical done form: the
		// bytes the converged barrier writes.
		FinalizeAdaptiveShard(&sh.st, opts.Inputs)
	}
	// Otherwise parked at the round barrier, which a shard leased before any
	// round is planned (empty history) reaches at once: the planner either
	// appends the next round's allocation or finalizes the shard.
	return nil
}

// strataTelemetry builds the telemetry snapshot block of a round barrier:
// every stratum's merged tally, interval, and stopped flag, in canonical
// order, so progress streams show per-stratum convergence.
func strataTelemetry(strata []Stratum, tallies []Proportion, history [][]int, targetCI float64) telemetry.StrataSnapshot {
	bound := SamplesFor(targetCI)
	allocated := allocatedTotals(len(strata), history)
	active := strataActive(tallies, allocated, bound, targetCI)
	ids := faultmodel.AllIDs()
	states := make([]telemetry.StratumState, len(strata))
	for s, st := range strata {
		states[s] = telemetry.StratumState{
			Model:     ids[st.Model].String(),
			Exec:      st.Exec,
			N:         tallies[s].Trials,
			Mean:      tallies[s].Mean(),
			HalfWidth: tallies[s].HalfWidth(),
			Stopped:   !active[s],
		}
	}
	return telemetry.StrataSnapshot{
		Rounds:   len(history),
		TargetCI: targetCI,
		Strata:   states,
	}
}
