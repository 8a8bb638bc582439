package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"fidelity/internal/accel"
	"fidelity/internal/campaign"
	"fidelity/internal/faultmodel"
)

// bench is what every pass needs: the accelerator, the load shape and where
// scratch files may go.
type bench struct {
	cfg *accel.Config
	// workers is both GOMAXPROCS and StudyOptions.Workers / the fleet size.
	workers int
	seed    int64
	seconds float64
	quick   bool
	// outDir holds trace files and the traced fleet's temporary state; it is
	// the only place the benchmark writes.
	outDir   string
	expected *expectations
}

// outcome is what one campaign produced, reduced to what the checks need.
type outcome struct {
	// units is the experiment (or RTL injection) count.
	units int
	// failedOps counts quarantined experiments, every experiment of a
	// partial campaign, and validation mismatches.
	failedOps int
	// digest is the sha256 of the result's JSON encoding: a speed-only
	// change must leave it unchanged.
	digest string
	// mismatchFrac is len(Mismatches)/NonMasked for validate-rtl, else 0.
	mismatchFrac float64
	err          string
}

func digestOf(v any) (string, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return hexSHA256(blob), nil
}

func hexSHA256(blob []byte) string {
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

func studyOutcome(res *campaign.StudyResult) (outcome, error) {
	d, err := digestOf(res)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{units: res.Experiments, failedOps: len(res.Quarantined), digest: d}
	if res.Partial {
		o.failedOps = res.Experiments
		o.err = "campaign result is partial"
	}
	return o, nil
}

func validationOutcome(rep *campaign.ValidationReport) (outcome, error) {
	d, err := digestOf(rep)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{units: rep.Total, failedOps: len(rep.Mismatches), digest: d}
	if rep.NonMasked > 0 {
		o.mismatchFrac = float64(len(rep.Mismatches)) / float64(rep.NonMasked)
	}
	if rep.DatapathExact != rep.DatapathChecked || len(rep.Mismatches) > 0 {
		o.err = fmt.Sprintf("software fault models disagree with rtlsim: %d/%d datapath cases exact, %d mismatches",
			rep.DatapathExact, rep.DatapathChecked, len(rep.Mismatches))
	}
	return o, nil
}

// campaignFunc runs one whole campaign at the sampling seed of repeat i.
type campaignFunc func(ctx context.Context, i int) (outcome, error)

// repeatSeed is the sampling seed of the i-th campaign of a run. A run times
// several campaigns that sample different faults, not one: an experiment
// costs anything from 20 us to 8 ms depending on where its fault lands, so the
// cost of a few hundred sampled experiments moves by 10% and more with the
// seed, and a run that timed one campaign would report that seed's luck as
// its speed. The same --seed still gives the same campaigns.
func (b *bench) repeatSeed(i int) int64 { return b.seed + int64(i) }

// prepare does the workload's set-up from nothing — model.Build (or the
// Table III layers) and faultmodel.Derive — and returns the function that
// runs one whole campaign. Its first call is the cold campaign.
func (b *bench) prepare(wl workload) (campaignFunc, error) {
	// The engine derives the fault models itself on every Study / RunShard;
	// deriving them here as well charges set-up with what a caller holding a
	// config pays before the first campaign.
	if _, err := faultmodel.Derive(b.cfg); err != nil {
		return nil, err
	}
	switch wl.kind {
	case kindValidate:
		layers, err := campaign.TableIIIWorkloads()
		if err != nil {
			return nil, err
		}
		return func(_ context.Context, i int) (outcome, error) {
			rep, err := campaign.Validate(b.cfg, layers, wl.valSamples, b.repeatSeed(i))
			if err != nil {
				return outcome{}, err
			}
			return validationOutcome(rep)
		}, nil
	case kindFleet:
		// Coordinator and workers each build the network from the spec;
		// building it here too keeps set-up comparable with workload 4.
		if _, err := wl.spec.BuildWorkload(); err != nil {
			return nil, err
		}
		return func(ctx context.Context, i int) (outcome, error) {
			spec := wl.spec
			spec.Seed = b.repeatSeed(i)
			fr, err := runFleet(ctx, spec, b.workers, b.outDir, fleetOptions{})
			if err != nil {
				return outcome{}, err
			}
			o, err := studyOutcome(fr.res)
			if err == nil && fr.status.Expired > 0 && o.err == "" {
				o.err = fmt.Sprintf("%d leases expired on a healthy loopback fleet", fr.status.Expired)
			}
			return o, err
		}, nil
	default:
		w, err := wl.spec.BuildWorkload()
		if err != nil {
			return nil, err
		}
		opts := wl.spec.Options()
		opts.Workers = b.workers
		return func(ctx context.Context, i int) (outcome, error) {
			o := opts
			o.Seed = b.repeatSeed(i)
			res, err := campaign.Study(ctx, b.cfg, w, o)
			if err != nil {
				return outcome{}, err
			}
			return studyOutcome(res)
		}, nil
	}
}

// setups is how many times a run sets up from nothing; setup_s is the median.
const setups = 3

// campaignsPerRun is how many differently seeded campaigns a run times, over
// and over, and minCycles how many times at least it goes round them all.
const (
	campaignsPerRun      = 6
	quickCampaignsPerRun = 2
	minCycles            = 2
)

// runEndToEnd is the untraced pass: `setups` cold starts, then a closed loop
// that goes round the same few campaigns, back to back, until b.seconds have
// been measured. Campaign i of either phase samples at repeatSeed(i), so the
// loop redoes the cold campaigns and must reproduce their digests.
//
// The host-speed kernel runs between any two timings, and every timing is
// divided by the host factor the two kernel runs around it give
// (hostspeed.go). A campaign's figure is the median of its corrected timings,
// the run's figure the median over its campaigns. Going round the campaigns,
// instead of repeating each in turn, spreads every campaign's timings over
// the whole window. The wall-clock timings and the factors are exported as
// measured, beside the corrected figures.
func (b *bench) runEndToEnd(ctx context.Context, wl workload) (result, error) {
	res := result{Workload: wl.name, Seed: b.seed, Size: sizeClass(b.quick)}
	var (
		setupS, setupWall, factors []float64
		run                        campaignFunc
		check                      = newChecker(b, wl)
	)
	host := newHostSpeed(b.quick)
	host.run() // the first run pages the arrays in
	ref := host.run()
	// corrected takes a wall that ended just now and returns it at nominal
	// host speed.
	corrected := func(wall float64) (float64, float64) {
		before := ref
		ref = host.run()
		f := host.factor(before, ref)
		factors = append(factors, f)
		return wall / f, f
	}
	for i := 0; i < setups; i++ {
		start := time.Now()
		var err error
		if run, err = b.prepare(wl); err != nil {
			return res, err
		}
		o, err := run(ctx, i)
		if err != nil {
			return res, err
		}
		wall := time.Since(start).Seconds()
		t, _ := corrected(wall)
		setupWall = append(setupWall, wall)
		setupS = append(setupS, t)
		check.add(i, o)
	}

	campaigns, cycles := campaignsPerRun, minCycles
	if b.quick {
		campaigns, cycles = quickCampaignsPerRun, 1
	}
	units := make([]int, campaigns)
	atNominal := make([][]float64, campaigns)
	res.TimingsS = make([][]float64, campaigns)
	res.HostFactors = make([][]float64, campaigns)
	loopStart := time.Now()
	for n := 0; ; n++ {
		i := n % campaigns
		start := time.Now()
		o, err := run(ctx, i)
		if err != nil {
			return res, err
		}
		wall := time.Since(start).Seconds()
		t, f := corrected(wall)
		res.TimingsS[i] = append(res.TimingsS[i], wall)
		res.HostFactors[i] = append(res.HostFactors[i], f)
		atNominal[i] = append(atNominal[i], t)
		check.add(i, o)
		units[i] = o.units
		// Stop before a campaign that would run past the measuring window.
		if n+1 >= campaigns*cycles && time.Since(loopStart).Seconds()+wall > b.seconds {
			break
		}
	}

	if wl.kind == kindFleet {
		// The fleet must assemble the bytes an in-process run of the same
		// spec does. Untimed: it is a check, not load.
		w, err := wl.spec.BuildWorkload()
		if err != nil {
			return res, err
		}
		opts := wl.spec.Options()
		opts.Workers = b.workers
		local, err := campaign.Study(ctx, b.cfg, w, opts)
		if err != nil {
			return res, err
		}
		d, err := digestOf(local)
		if err != nil {
			return res, err
		}
		check.sameAs("in-process run of the same spec", d)
	}
	check.finish(&res)

	var typical, rate, walls []float64
	for i, timings := range atNominal {
		_, med, _ := quartiles(timings)
		typical = append(typical, med)
		rate = append(rate, float64(units[i])/med)
		walls = append(walls, res.TimingsS[i]...)
	}
	_, wallMedian, _ := quartiles(walls)
	_, setupMedian, _ := quartiles(setupWall)
	fq1, fmed, fq3 := quartiles(factors)
	note := fmt.Sprintf("at nominal host speed: median over %d differently seeded campaigns of each one's median of %d-%d timings; wall-clock median of all %d timings %.6g s; host factor %.3g [%.3g, %.3g] over %d host-speed kernel runs",
		campaigns, len(atNominal[campaigns-1]), len(atNominal[0]), len(walls), wallMedian, fmed, fq1, fq3, len(factors)+1)
	rec := newRecorder(endToEnd)
	rec.samples("exp_per_s", rate, note)
	rec.samples("time_to_ci_s", typical, note)
	rec.samples("setup_s", setupS, fmt.Sprintf("at nominal host speed: median of Build + Derive + cold campaign; wall-clock median %.6g s", setupMedian))
	rec.value("failed_frac", float64(res.Failed)/float64(res.Attempted), res.Attempted, "")
	if wl.kind == kindValidate {
		rec.value("mismatch_frac", check.mismatchFrac, check.campaigns, "")
	}
	res.Metrics = rec.metrics()
	return res, nil
}
