package main

import (
	"fmt"

	"fidelity/internal/distrib"
)

type kind int

const (
	// kindCampaign runs campaign.Study in process.
	kindCampaign kind = iota
	// kindFleet runs the same campaign through a loopback coordinator and
	// in-process distrib.Work clients.
	kindFleet
	// kindValidate runs campaign.Validate against the cycle-level reference.
	kindValidate
)

// workload is one fixed set of inputs. The sizes below are frozen: one
// campaign takes about half a second on one worker (0.8 s through the fleet),
// so a run goes three to five times round its six campaigns in its measuring
// window and the whole driver schedule of 4 + 22×6 runs fits its time cap.
type workload struct {
	name string
	// why is the one-line reason in BENCHMARK.json; README.md has the long
	// form.
	why  string
	kind kind
	// spec is the campaign, in the wire form both the in-process and the
	// fleet path derive their options and network from — which is what makes
	// fleet-adaptive and inception-adaptive the identical campaign.
	spec distrib.CampaignSpec
	// valSamples is the RTL injection count per Table III layer.
	valSamples int
	// runs is how many individually timed experiments the traced pass makes
	// (Injector.Run for campaigns, rtlsim.Run for validate-rtl). Fixed, not
	// time-boxed, so inject.masked_frac repeats exactly.
	runs int
}

// workloadSeed seeds the zoo networks' weights; 42 is what every campaign in
// the repo uses. The benchmark seed is the sampling seed only.
const workloadSeed = 42

// The shard count is part of a campaign's identity and of the pinned
// digests. Full sizes use campaign.DefaultShards written out; the smoke sizes
// use fewer, which mostly spares the quick fleet its lease round trips.
const (
	fullShards  = 16
	quickShards = 4
)

func allWorkloads(quick bool, seed int64) []workload {
	shards := fullShards
	if quick {
		shards = quickShards
	}
	fixed := func(net string, samples, inputs int) distrib.CampaignSpec {
		return distrib.CampaignSpec{Workload: net, Precision: "fp16", WorkloadSeed: workloadSeed,
			Tolerance: 0.1, Samples: samples, Inputs: inputs, Seed: seed, Shards: shards}.Normalize()
	}
	adaptive := func(targetCI float64, inputs int) distrib.CampaignSpec {
		return distrib.CampaignSpec{Workload: "inception", Precision: "int8", WorkloadSeed: workloadSeed,
			Tolerance: 0.1, TargetCI: targetCI, Inputs: inputs, Seed: seed, Shards: shards, PerLayer: true}.Normalize()
	}
	size := func(full, small int) int {
		if quick {
			return small
		}
		return full
	}
	targetCI, adaptiveInputs := 0.1, 2
	if quick {
		targetCI, adaptiveInputs = 0.25, 1
	}
	return []workload{
		{
			name: "resnet-fixed", kind: kindCampaign,
			why:  "deep residual CNN: time goes to recomputing the dirty suffix through tiled conv kernels, so nn kernel, region-sweep and suffix-termination work shows here",
			spec: fixed("resnet", size(80, 4), size(2, 1)), runs: size(2000, 24),
		},
		{
			name: "mobilenet-fixed", kind: kindCampaign,
			why:  "almost no MACs per experiment: fault planning, inject bookkeeping, batching and allocation dominate, so kernel work predicts no change and engine-overhead work shows",
			spec: fixed("mobilenet", size(2000, 24), size(2, 1)), runs: size(4000, 24),
		},
		{
			name: "transformer-fixed", kind: kindCampaign,
			why:  "attention/MatMul/dense sites, few region sweeps, BLEU scoring: a conv-only gain that costs the sequence path shows here",
			spec: fixed("transformer", size(90, 3), size(2, 1)), runs: size(2000, 24),
		},
		{
			name: "inception-adaptive", kind: kindCampaign,
			why:  "adaptive per-layer INT8 campaign to a target CI: rounds with shard barriers, pinned sites, quantizer codec; planner, barrier and INT8 work shows",
			spec: adaptive(targetCI, adaptiveInputs), runs: size(4000, 24),
		},
		{
			name: "fleet-adaptive", kind: kindFleet,
			why:  "the identical adaptive campaign through a loopback coordinator and Workers distrib.Work clients: lease/report, persist and barrier polling are the whole difference",
			spec: adaptive(targetCI, adaptiveInputs),
		},
		{
			name: "validate-rtl", kind: kindValidate,
			why:        "the paper's accuracy claim: cycle-level rtlsim injections checked against the software fault models, so a speed-up that breaks agreement fails instead of winning",
			valSamples: size(150, 6), runs: size(400, 12),
		},
	}
}

func findWorkload(name string, quick bool, seed int64) (workload, error) {
	var names []string
	for _, wl := range allWorkloads(quick, seed) {
		if wl.name == name {
			return wl, nil
		}
		names = append(names, wl.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// sizeClass names the frozen size set a digest in expected.json belongs to.
func sizeClass(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}
