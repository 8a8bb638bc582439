// Package baseline implements the naive software fault-injection technique
// the paper compares against in Sec. VI: every hardware logic transient
// error is modeled as a single-cycle bit-flip in a single architectural
// (software-visible) state. It ignores value reuse (a flipped FF can
// corrupt up to RF neurons), control state (global-control faults almost
// always fail), and FF activeness — which is why it underestimates the
// Accelerator_FIT_rate by large factors (the paper measures up to 25×).
package baseline

import (
	"context"
	"fmt"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/dataset"
	"fidelity/internal/faultmodel"
	"fidelity/internal/fit"
	"fidelity/internal/model"
	"fidelity/internal/nn"

	"math/rand"
)

// Options parameterizes a naive campaign.
type Options struct {
	Samples   int
	Inputs    int
	Tolerance float64
	Seed      int64
}

// Result is the naive technique's estimate.
type Result struct {
	// Masked is the naive masking probability with CI.
	Masked campaign.Proportion
	// FIT is the naive Accelerator_FIT_rate: FIT_raw × N_ff × (1 − masked),
	// with every FF treated as a single-bit architectural flip and no
	// activeness or control modeling.
	FIT float64
	// Experiments counts the runs.
	Experiments int
}

// Run executes the naive campaign for a workload on design cfg. It checks ctx
// before each experiment; once ctx is done it returns the experiments run so
// far with ctx's error.
func Run(ctx context.Context, cfg *accel.Config, w *model.Workload, opts Options) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Samples <= 0 || opts.Inputs <= 0 {
		return nil, fmt.Errorf("baseline: Samples and Inputs must be positive")
	}
	rng := rand.New(faultmodel.NewStreamSource(opts.Seed))
	res := &Result{}
	for i := 0; i < opts.Inputs; i++ {
		x, err := dataset.Sample(w.Dataset, i)
		if err != nil {
			return nil, err
		}
		out, execs := w.Net.Trace(x)
		golden := w.Decode(out)
		if len(execs) == 0 {
			return nil, fmt.Errorf("baseline: workload %s has no compute sites", w.Net.Name())
		}
		// Architectural state = the layer output values; sample elements
		// uniformly across the total state.
		total := 0
		for _, e := range execs {
			total += e.OutSize
		}
		per := opts.Samples / opts.Inputs
		if i < opts.Samples%opts.Inputs {
			per++
		}
		for s := 0; s < per; s++ {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			pick := rng.Intn(total)
			var target nn.SiteExecution
			for _, e := range execs {
				if pick < e.OutSize {
					target = e
					break
				}
				pick -= e.OutSize
			}
			elem := pick
			bit := rng.Intn(w.Net.Codec.Bits())
			out := w.Net.ForwardWithHook(x, func(site nn.Layer, visit int, op *nn.Operands) {
				s, ok := site.(nn.Site)
				if !ok || s != target.Site || visit != target.Visit {
					return
				}
				d := op.Out.Data()
				d[elem] = w.Net.Codec.FlipBit(d[elem], bit)
			})
			faulty := w.Decode(out)
			res.Masked.Add(w.Correct(golden, faulty, opts.Tolerance))
			res.Experiments++
		}
	}
	raw := fit.RawFITPerFF(fit.RawFFFITPerMB)
	res.FIT = raw * float64(cfg.NumFFs) * (1 - res.Masked.Mean())
	return res, nil
}

// Underestimate returns the factor by which the naive FIT underestimates a
// FIdelity FIT result.
func Underestimate(fidelityFIT float64, naive *Result) float64 {
	if naive.FIT <= 0 {
		return 0
	}
	return fidelityFIT / naive.FIT
}

// UnderestimateBound returns a statistically conservative lower bound on the
// underestimate factor: when the naive campaign observes zero failures, its
// point-estimate FIT is 0 and the plain ratio diverges, so the bound uses
// the Wilson 95% lower limit of the masking probability (i.e. the largest
// failure rate consistent with the sample) to cap the naive FIT from above.
func UnderestimateBound(cfg *accel.Config, fidelityFIT float64, naive *Result) float64 {
	lo, _ := naive.Masked.Wilson(1.96)
	upper := fit.RawFITPerFF(fit.RawFFFITPerMB) * float64(cfg.NumFFs) * (1 - lo)
	if upper <= 0 {
		return 0
	}
	return fidelityFIT / upper
}
