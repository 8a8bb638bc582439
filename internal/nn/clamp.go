package nn

import (
	"fidelity/internal/tensor"
)

// This file implements range-restriction hardening (Ranger-style activation
// clamping) inside the replay-aware forward path. A Bound installed on a
// compute site saturates every output value of that site to the profiled
// golden envelope [Lo, Hi] immediately after the site executes (and after
// any injection hook has patched the output), so a faulty value that
// escapes the envelope is bounded before it propagates downstream.
//
// Bit-exactness with the unhardened golden pass is preserved by a fixed-point
// argument: bounds are derived from golden-trace min/max profiles, so every
// golden activation already satisfies Lo <= v <= Hi and the clamp is the
// identity on clean data (golden traces never contain NaN). Only
// fault-perturbed values can saturate. The clamp is applied in Context.exec's
// one post-step, which every route that produces a fresh output — plain,
// record, the replayed target, the dirty-region sweep, the whole-layer
// recompute — ends in, so the replay engine and the plain-forward oracle stay
// bit-identical for the hardened network too (DESIGN.md §11).

// Bound is a closed activation envelope for one compute site. Values below
// Lo (including NaN, which only faults can produce) saturate to Lo; values
// above Hi saturate to Hi.
type Bound struct {
	Lo, Hi float32
}

// HardenStats counts what range-restriction clamping did during forward
// passes through one Context.
type HardenStats struct {
	// ClampApplications counts site executions whose output was
	// bounds-checked.
	ClampApplications int64
	// Saturated counts individual output values forced back into the
	// envelope (zero on clean data, by the fixed-point property).
	Saturated int64
}

// clampSite saturates out to l's installed envelope, if any. It runs after
// the injection hook has patched the output and before the tensor is
// recorded, canonicalized, or diff-scanned, so every execution mode sees the
// same post-clamp values. NaN (fault-produced only: golden traces are
// NaN-free) maps deterministically to Lo.
func (c *Context) clampSite(l Layer, out *tensor.Tensor) {
	if c == nil || len(c.clamps) == 0 || out == nil {
		return
	}
	b, ok := c.clamps[l]
	if !ok {
		return
	}
	c.hstats.ClampApplications++
	data := out.Data()
	for i, v := range data {
		switch {
		case v != v:
			data[i] = b.Lo
			c.hstats.Saturated++
		case v < b.Lo:
			data[i] = b.Lo
			c.hstats.Saturated++
		case v > b.Hi:
			data[i] = b.Hi
			c.hstats.Saturated++
		}
	}
}

// HardenStats returns the clamp counters accumulated since the context was
// built (or, for a replay context, since the last SetTarget).
func (c *Context) HardenStats() HardenStats { return c.hstats }
