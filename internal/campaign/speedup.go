package campaign

import (
	"context"
	"fmt"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/faultmodel"
	"fidelity/internal/rtlsim"
)

// VCSCyclesPerSec estimates the simulation rate of full-design RTL
// simulation (Synopsys-VCS class) for an NVDLA-sized design: a few hundred
// cycles per second. The paper reports FIdelity achieving >10000× over RTL;
// the exact constant only scales the reported factor, not its shape.
const VCSCyclesPerSec = 300.0

// Speedup quantifies the Sec. VI comparison for one validation workload:
// the wall-clock cost of one fault-injection experiment under three
// techniques.
type Speedup struct {
	Workload string
	// Cycles is the layer's simulated cycle count.
	Cycles int64
	// SoftwareSec is the measured per-injection cost of FIdelity's software
	// fault injection (plan + apply + output diff).
	SoftwareSec float64
	// MixedSec is the measured per-injection cost of the cycle-level
	// simulator — the mixed-mode analog (RTL for the injected layer,
	// software elsewhere).
	MixedSec float64
	// RTLSec is the estimated per-injection cost of full RTL simulation at
	// VCSCyclesPerSec.
	RTLSec float64
	// VsRTL and VsMixed are the speedup factors of software injection.
	VsRTL, VsMixed float64
}

// MeasureSpeedup times software fault injection against the cycle-level
// reference for each workload, running iters injections of each kind.
// Cancelling ctx stops the measurement at the next workload boundary —
// the cycle-level reference runs can take seconds per workload.
func MeasureSpeedup(ctx context.Context, cfg *accel.Config, workloads []*ValWorkload, iters int, seed int64) ([]Speedup, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("campaign: iters must be positive")
	}
	models, err := faultmodel.Derive(cfg)
	if err != nil {
		return nil, err
	}
	var out []Speedup
	for _, w := range workloads {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sampler, err := faultmodel.NewSampler(models, seed)
		if err != nil {
			return nil, err
		}
		golden, err := rtlsim.Run(cfg, w.RTL, nil)
		if err != nil {
			return nil, err
		}
		op := w.operands(golden.Out)

		// Software fault injection: plan + apply + restore.
		//lint:allow wallclock the Sec. VI speedup comparison IS a wall-clock measurement deliverable
		swStart := time.Now()
		var plan faultmodel.Plan // reused, as a campaign's injector reuses its own
		for i := 0; i < iters; i++ {
			if err := sampler.PlanInto(&plan, faultmodel.CBUFMACWeight, w.Site, 0, op); err != nil {
				return nil, err
			}
			changes := faultmodel.Apply(&plan, w.Site, op)
			for _, c := range changes { // restore for the next iteration
				op.Out.Data()[c.Flat] = c.Golden
			}
		}
		//lint:allow wallclock the Sec. VI speedup comparison IS a wall-clock measurement deliverable
		swSec := time.Since(swStart).Seconds() / float64(iters)

		// Cycle-level (mixed-mode analog) injection: full simulation per
		// fault.
		start, end, err := rtlsim.ComputeWindow(cfg, w.RTL)
		if err != nil {
			return nil, err
		}
		rng := sampler.Rand()
		mixIters := iters
		if mixIters > 10 {
			mixIters = 10 // the cycle simulator is orders slower; sample it
		}
		//lint:allow wallclock the Sec. VI speedup comparison IS a wall-clock measurement deliverable
		mmStart := time.Now()
		for i := 0; i < mixIters; i++ {
			f := &rtlsim.Fault{
				FF: rtlsim.FFWReg, Mac: rng.Intn(cfg.AtomicK),
				Bit: rng.Intn(16), Cycle: start + rng.Int63n(end-start),
			}
			if _, err := rtlsim.Run(cfg, w.RTL, f); err != nil {
				return nil, err
			}
		}
		//lint:allow wallclock the Sec. VI speedup comparison IS a wall-clock measurement deliverable
		mmSec := time.Since(mmStart).Seconds() / float64(mixIters)

		cycles, err := rtlsim.GoldenCycles(cfg, w.RTL)
		if err != nil {
			return nil, err
		}
		s := Speedup{
			Workload:    w.Name,
			Cycles:      cycles,
			SoftwareSec: swSec,
			MixedSec:    mmSec,
			RTLSec:      float64(cycles) / VCSCyclesPerSec,
		}
		if swSec > 0 {
			s.VsRTL = s.RTLSec / swSec
			s.VsMixed = mmSec / swSec
		}
		out = append(out, s)
	}
	return out, nil
}
