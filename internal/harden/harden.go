// Package harden closes the loop from resilience measurement to protection
// (ROADMAP item 4): it turns a campaign-measured FIT breakdown into a
// concrete mitigation config — Ranger-style activation range restriction,
// SentinelNN-style selective duplication of the most vulnerable layers, and
// hardened global-control FFs — and re-measures the hardened network under
// the same campaign engine, so the before/after FIT comparison rests on
// injection experiments, not on modeling alone.
//
// Each mitigation family extends a hardening Config. Range restriction
// installs per-site activation clamps derived from golden-trace min/max
// profiles; because the bounds contain every golden activation, the
// clamp is the identity on clean data and the hardened network's golden
// behavior — and therefore replay bit-exactness and shard determinism — is
// unchanged (DESIGN.md §11). Selective duplication ranks layer executions by
// their measured FIT contribution and re-executes the top ones redundantly,
// costed as execution-time share through fit.PlanDuplication. The
// recommendation search explores duplication fraction × global-control
// protection for the cheapest config meeting the ASIL-D FF budget.
package harden

import (
	"fmt"
	"sort"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/fit"
)

// RangeRestriction installs the profiled activation envelopes (see Profile)
// as base's per-site clamps (Ranger-style). Its FIT effect is not modeled:
// the hardened campaign re-run measures it directly, as higher Prob_SWmask.
// It never mutates envelopes.
func RangeRestriction(envelopes []Envelope, base Config) (Config, error) {
	clamps := append([]Envelope(nil), envelopes...)
	sort.Slice(clamps, func(i, j int) bool { return clamps[i].Site < clamps[j].Site })
	for _, e := range clamps {
		if e.Lo > e.Hi {
			return base, fmt.Errorf("harden: envelope for %s is inverted [%v, %v]", e.Site, e.Lo, e.Hi)
		}
	}
	base.Clamps = clamps
	return base, nil
}

// RecommendationSearch explores protection configs — global-control
// protection on/off crossed with the duplication fraction the greedy planner
// needs under each — and extends base with the cheapest one meeting budget
// (0 = the area-apportioned ASIL-D FF budget). Hardware cost order:
// duplication time share first, hardened global-control FFs second; so the
// search tries the cheaper no-global-protection variant first and only
// escalates when it cannot meet the budget. When no explored config meets
// the budget, the most protective one (global protection plus full
// duplication) is returned with its residual; the caller sees Meets=false
// in the final FIT check.
func RecommendationSearch(acfg *accel.Config, study *campaign.StudyResult, budget float64, base Config) (Config, error) {
	if budget <= 0 {
		budget = fit.FFBudget()
	}
	best := base
	found := false
	bestShare := 0.0
	for _, gc := range []bool{false, true} {
		plan, err := fit.PlanDuplication(acfg, study.RawPerFF, study.Layers, budget, gc)
		if err != nil {
			return base, err
		}
		cand := base
		cand.Duplicated = plan.Duplicated()
		cand.ProtectGlobal = gc
		if plan.Meets && (!found || plan.DupTimeShare < bestShare) {
			best, found, bestShare = cand, true, plan.DupTimeShare
		}
		if !found {
			// Track the most protective fallback so a hopeless budget still
			// yields a concrete (if insufficient) recommendation.
			best = cand
		}
	}
	return best, nil
}
