package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"fidelity/internal/campaign"
	"fidelity/internal/faultmodel"
	"fidelity/internal/rtlsim"
)

// traceValidate is the traced pass of validate-rtl. Top-level spans: setup,
// reference (the untraced campaign.Validate call), validate (the same
// campaign one Table III layer at a time), experiments (individually timed
// rtlsim.Run injections) and layers.
func (b *bench) traceValidate(ctx context.Context, wl workload) (result, *tracer, error) {
	res := result{Workload: wl.name, Seed: b.seed, Size: sizeClass(b.quick), Traced: true}
	rec := newRecorder(perLayer)
	check := newChecker(b, wl)
	tr := newTracer(wl.name)
	root := tr.begin("trace")

	setup := tr.begin("setup")
	var layers []*campaign.ValWorkload
	if _, err := tr.time("campaign.TableIIIWorkloads", func() (err error) { layers, err = campaign.TableIIIWorkloads(); return }); err != nil {
		return res, tr, err
	}
	if _, err := tr.time("faultmodel.Derive", func() error { _, err := faultmodel.Derive(b.cfg); return err }); err != nil {
		return res, tr, err
	}
	tr.end(setup)

	validate := func(name string, ws []*campaign.ValWorkload) (*campaign.ValidationReport, error) {
		var rep *campaign.ValidationReport
		_, err := tr.time(name, func() (err error) { rep, err = campaign.Validate(b.cfg, ws, wl.valSamples, b.seed); return })
		return rep, err
	}
	ref := tr.begin("reference")
	rep, err := validate("campaign.Validate", layers)
	if err != nil {
		return res, tr, err
	}
	refWall := tr.end(ref)
	out, err := validationOutcome(rep)
	if err != nil {
		return res, tr, err
	}
	check.add(0, out)

	// One call per layer draws different faults than the single call (the
	// sampling stream restarts per call), so these reports are checked for
	// agreement with rtlsim but not against the digest.
	val := tr.begin("validate")
	for _, l := range layers {
		rep, err := validate("campaign.Validate "+l.Name, []*campaign.ValWorkload{l})
		if err != nil {
			return res, tr, err
		}
		if rep.DatapathExact != rep.DatapathChecked || len(rep.Mismatches) > 0 {
			check.errorf("%s: software fault models disagree with rtlsim: %v", l.Name, rep.Mismatches)
		}
	}
	tracedWall := tr.end(val)
	rec.value("trace.overhead_frac", tracedWall.Seconds()/refWall.Seconds()-1, 1,
		fmt.Sprintf("layer-by-layer traced validation %.4fs over the single untraced call %.4fs", tracedWall.Seconds(), refWall.Seconds()))

	// experiments: single cycle-level injections, rotating the layers.
	exp := tr.begin("experiments")
	rng := rand.New(faultmodel.NewStreamSource(b.seed))
	var runMS []float64
	for i := 0; i < wl.runs; i++ {
		l := layers[i%len(layers)]
		start, end, err := rtlsim.ComputeWindow(b.cfg, l.RTL)
		if err != nil {
			return res, tr, err
		}
		f := &rtlsim.Fault{FF: rtlsim.FFWReg, Mac: rng.Intn(b.cfg.AtomicK), Bit: rng.Intn(16), Cycle: start + rng.Int63n(end-start)}
		id := tr.begin("rtlsim.Run")
		o, err := rtlsim.Run(b.cfg, l.RTL, f)
		if err != nil {
			return res, tr, fmt.Errorf("%s fault %v: %w", l.Name, f, err)
		}
		d := tr.end(id, "layer", l.Name, "applied", strconv.FormatBool(o.FaultApplied), "timed_out", strconv.FormatBool(o.TimedOut))
		runMS = append(runMS, d.Seconds()*1e3)
	}
	tr.end(exp)
	rec.samples("rtlsim.run_ms_p50", runMS, "rtlsim.Run with one weight-register fault, Table III layers rotating")

	lay := tr.begin("layers")
	if err := b.probeCommon(tr, rec); err != nil {
		return res, tr, err
	}
	var rate []float64
	for _, l := range layers {
		cycles, err := rtlsim.GoldenCycles(b.cfg, l.RTL)
		if err != nil {
			return res, tr, err
		}
		sec, err := tr.each("rtlsim.Run golden "+l.Name, b.count(20), 1, func() error { _, err := rtlsim.Run(b.cfg, l.RTL, nil); return err })
		if err != nil {
			return res, tr, err
		}
		rate = append(rate, perSecond(float64(cycles), sec)...)
	}
	rec.samples("rtlsim.cycles_per_s", rate, "simulated cycles per host second: GoldenCycles over the wall of a fault-free rtlsim.Run")

	id := tr.begin("campaign.MeasureSpeedup")
	speedups, err := campaign.MeasureSpeedup(ctx, b.cfg, layers, b.count(100), b.seed)
	tr.end(id)
	if err != nil {
		return res, tr, err
	}
	logSum := 0.0
	for _, s := range speedups {
		logSum += math.Log(s.VsMixed)
	}
	rec.value("rtlsim.sw_vs_cycle_speedup", math.Exp(logSum/float64(len(speedups))), len(speedups),
		"geomean over the Table III layers of cycle-level injection time over software injection time (Sec. VI)")

	tr.end(lay)
	tr.end(root)

	res.Metrics = rec.metrics()
	check.counts(res.Metrics)
	check.finish(&res)
	return res, tr, nil
}
