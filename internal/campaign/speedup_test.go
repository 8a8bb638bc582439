package campaign

import (
	"context"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/faultmodel"
	"fidelity/internal/rtlsim"
)

func TestMeasureSpeedupValidation(t *testing.T) {
	if _, err := MeasureSpeedup(context.Background(), accel.NVDLASmall(), nil, 0, 1); err == nil {
		t.Error("zero iters should fail")
	}
}

// Sec. VI shape: software fault injection is orders of magnitude faster
// than RTL simulation and faster than the cycle-level (mixed-mode analog)
// simulator for every Table III workload. The ordering is asserted on work a
// busy host cannot move: per injection the cycle-level reference computes
// every neuron of the layer, from cycle 0, while the software model
// recomputes its plan's neurons alone, with the same MACs each. The measured
// wall-clock factors are logged, not asserted: they time ≈100 µs of software
// injections, which one descheduling on a loaded host moves tenfold
// (`fidelity study -speedup` and the benchmark's rtlsim.sw_vs_cycle_speedup
// report them).
func TestSpeedupShape(t *testing.T) {
	ws, err := TableIIIWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	cfg := accel.NVDLASmall()
	const iters = 50
	reports, err := MeasureSpeedup(context.Background(), cfg, ws[:3], iters, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	models, err := faultmodel.Derive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := faultmodel.NewSampler(models, 2)
	if err != nil {
		t.Fatal(err)
	}
	var plan faultmodel.Plan
	for i, r := range reports {
		if r.Cycles <= 0 || r.SoftwareSec <= 0 || r.MixedSec <= 0 {
			t.Fatalf("%s: empty measurements %+v", r.Workload, r)
		}
		t.Logf("%s: software injection %.0f× faster than RTL, %.1f× than the cycle-level reference (wall clock)",
			r.Workload, r.VsRTL, r.VsMixed)
		golden, err := rtlsim.Run(cfg, ws[i].RTL, nil)
		if err != nil {
			t.Fatal(err)
		}
		op := ws[i].operands(golden.Out)
		recomputed := 0
		for range iters {
			if err := sampler.PlanInto(&plan, faultmodel.CBUFMACWeight, ws[i].Site, 0, op); err != nil {
				t.Fatal(err)
			}
			recomputed += len(plan.Neurons)
		}
		if cycle := iters * op.Out.Size(); recomputed >= cycle {
			t.Errorf("%s: the software model recomputes %d neurons in %d injections, the cycle-level reference %d",
				r.Workload, recomputed, iters, cycle)
		}
	}
}
