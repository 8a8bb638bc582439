package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"fidelity/internal/dataset"
	"fidelity/internal/faultmodel"
	"fidelity/internal/inject"
	"fidelity/internal/model"
	"fidelity/internal/nn"
	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// probeValues is how many values a numerics probe touches per timed call.
const probeValues = 64 << 10

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float32

// probeCommon times the substrate every workload stands on: the numerics
// codecs per value, the blocked tensor.MatMul and faultmodel.Derive.
func (b *bench) probeCommon(tr *tracer, rec *recorder) error {
	rng := rand.New(faultmodel.NewStreamSource(b.seed))
	values := make([]float32, probeValues)
	for i := range values {
		values[i] = float32(rng.NormFloat64() * 2)
	}
	n := b.count(20)
	for _, c := range []struct {
		metric string
		prec   numerics.Precision
	}{
		{"numerics.fp16_round_ns", numerics.FP16},
		{"numerics.int8_round_ns", numerics.INT8},
	} {
		// 8 is the calibration range model.Build gives every zoo network.
		codec, err := numerics.NewCodec(c.prec, 8)
		if err != nil {
			return err
		}
		ns, _ := tr.each("numerics.Codec.RoundSlice "+c.prec.String(), n, 1e9/probeValues, func() error {
			sink += codec.RoundSlice(values)[0]
			return nil
		})
		rec.samples(c.metric, ns, fmt.Sprintf("per value, Codec.RoundSlice over %d values", probeValues))
	}
	fp16, err := numerics.NewCodec(numerics.FP16, 8)
	if err != nil {
		return err
	}
	ns, _ := tr.each("numerics.Codec.FlipBit", n, 1e9/probeValues, func() error {
		for i, v := range values {
			sink += fp16.FlipBit(v, i&15)
		}
		return nil
	})
	rec.samples("numerics.flipbit_ns", ns, fmt.Sprintf("per value, FP16 Codec.FlipBit over %d values", probeValues))

	const dim = 128
	a, m := tensor.New(dim, dim), tensor.New(dim, dim)
	a.RandNormal(rng, 1)
	m.RandNormal(rng, 1)
	sec, _ := tr.each("tensor.MatMul", n, 1, func() error {
		sink += tensor.MatMul(a, m).Data()[0]
		return nil
	})
	rec.samples("tensor.matmul_mac_per_s", perSecond(dim*dim*dim, sec), "128x128x128 tensor.MatMul")

	us, err := tr.each("faultmodel.Derive", b.count(50), 1e6, func() error { _, err := faultmodel.Derive(b.cfg); return err })
	if err != nil {
		return err
	}
	rec.samples("faultmodel.derive_us", us, "called once per Study, once per RunShard and once per Validate")
	return nil
}

// perSecond turns per-call seconds into work per second.
func perSecond(work float64, seconds []float64) []float64 {
	out := make([]float64, len(seconds))
	for i, s := range seconds {
		out[i] = work / s
	}
	return out
}

// probeNetwork times the calls a campaign makes around its experiments on
// this workload's network, plus one representative conv and dense layer.
func (b *bench) probeNetwork(tr *tracer, rec *recorder, wl workload, w *model.Workload, x0 *tensor.Tensor, golden *inject.Golden, models []faultmodel.Model) error {
	ms, err := tr.each("model.Build", b.count(20), 1e3, func() error { _, err := wl.spec.BuildWorkload(); return err })
	if err != nil {
		return err
	}
	rec.samples("model.build_ms", ms, wl.spec.Workload+" "+wl.spec.Precision)

	us, err := tr.each("dataset.Sample", b.count(50), 1e6, func() error { _, err := dataset.Sample(w.Dataset, 1); return err })
	if err != nil {
		return err
	}
	rec.samples("dataset.sample_us", us, string(w.Dataset))

	ms, _ = tr.each("nn.Network.Forward", b.count(40), 1e3, func() error {
		sink += w.Net.Forward(x0).Data()[0]
		return nil
	})
	rec.samples("nn.forward_ms", ms, "plain Network.Forward of "+wl.spec.Workload)

	ms, err = tr.each("inject.TraceGolden", b.count(20), 1e3, func() error { _, err := inject.TraceGolden(w, x0, true); return err })
	if err != nil {
		return err
	}
	rec.samples("nn.golden_trace_ms", ms, "inject.TraceGolden with activations")

	sampler, err := faultmodel.NewSampler(models, b.seed)
	if err != nil {
		return err
	}
	inj := inject.New(w, sampler)
	us, err = tr.each("inject.Injector.PrepareGolden", b.count(200), 1e6, func() error { return inj.PrepareGolden(golden) })
	if err != nil {
		return err
	}
	rec.samples("inject.prepare_us", us, "PrepareGolden from a shared golden trace")

	conv, err := b.probeLayer(tr, rec, "nn.conv_mac_per_s", "resnet", func(e nn.SiteExecution) float64 {
		c, ok := e.Site.(*nn.Conv2D)
		if !ok || c.Depthwise {
			return 0
		}
		return float64(e.OutSize * c.KH * c.KW * c.InC)
	})
	if err != nil {
		return err
	}
	if _, err := b.probeLayer(tr, rec, "nn.dense_mac_per_s", "transformer", func(e nn.SiteExecution) float64 {
		d, ok := e.Site.(*nn.Dense)
		if !ok {
			return 0
		}
		return float64(e.OutSize * d.In)
	}); err != nil {
		return err
	}

	// One fault planned and applied on that conv layer, then undone.
	var op *nn.Operands
	conv.site.Forward(conv.input, nn.NewContext(func(_ nn.Layer, _ int, o *nn.Operands) {
		c := *o
		op = &c
	}))
	if op == nil {
		return fmt.Errorf("conv site %s fired no hook", conv.site.Name())
	}
	us, err = tr.each("faultmodel.Sampler.Plan+Apply", b.count(2000), 1e6, func() error {
		plan, err := sampler.Plan(faultmodel.CBUFMACWeight, conv.site, 0, op)
		if err != nil {
			return err
		}
		for _, ch := range faultmodel.Apply(plan, conv.site, op) {
			op.Out.Data()[ch.Flat] = ch.Golden
		}
		return nil
	})
	if err != nil {
		return err
	}
	rec.samples("faultmodel.plan_apply_us", us, "CBUFMACWeight on resnet "+conv.site.Name())
	return nil
}

// probedLayer is the layer execution a MAC/s probe ran.
type probedLayer struct {
	site  nn.Site
	input *tensor.Tensor
}

// probeLayer times the forward pass of the heaviest layer execution of the
// FP16 zoo network `net` for which macs returns non-zero, and reports its
// multiply-accumulates per second with the count computed from the shapes.
func (b *bench) probeLayer(tr *tracer, rec *recorder, metric, net string, macs func(nn.SiteExecution) float64) (probedLayer, error) {
	w, err := model.Build(net, numerics.FP16, workloadSeed)
	if err != nil {
		return probedLayer{}, err
	}
	x, err := dataset.Sample(w.Dataset, 0)
	if err != nil {
		return probedLayer{}, err
	}
	_, execs := w.Net.Trace(x)
	var pick nn.SiteExecution
	var work float64
	for _, e := range execs {
		if m := macs(e); m > work {
			pick, work = e, m
		}
	}
	if work == 0 {
		return probedLayer{}, fmt.Errorf("%s has no layer for %s", net, metric)
	}
	in := tensor.New(pick.InShape...)
	in.RandNormal(rand.New(faultmodel.NewStreamSource(b.seed)), 1)
	sec, _ := tr.each(metric, b.count(40), 1, func() error {
		sink += pick.Site.Forward(in, nil).Data()[0]
		return nil
	})
	rec.samples(metric, perSecond(work, sec),
		fmt.Sprintf("%s %s, in %v out %v, %.0f MAC from the shapes", net, pick.Site.Name(), pick.InShape, pick.OutShape, work))
	return probedLayer{site: pick.Site, input: in}, nil
}

// peakRSSMB is the process's resident-set high-water mark, 0 where the
// kernel does not report one.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
