package faultmodel

import (
	"math/rand"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/nn"
	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// benchApply times Apply for one Before-CBUF model on resnet-lite's res1/c1
// (3×3, 16→16 channels, 32×32 map, FP16, post-ReLU input): 64 sampled plans in
// turn, each undone again so that every one meets the golden output. An input
// fault recomputes all 16 channels of up to nine pixels, a weight fault one
// channel of all 1024.
func benchApply(b *testing.B, id ID) {
	models, err := Derive(accel.NVDLASmall())
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSampler(models, 41)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	codec := numerics.MustCodec(numerics.FP16, 0)
	conv := nn.NewConv2D("res1/c1", 3, 3, 16, 16, 1, 1, codec).InitRandom(rng, 0.1)
	x := tensor.New(1, 32, 32, 16)
	x.RandNormal(rng, 1)
	x.Apply(func(v float32) float32 { return codec.Round(max(v, 0)) })
	op := &nn.Operands{In: x, W: conv.W, B: conv.B, Out: conv.Forward(x, nil)}
	plans := make([]*Plan, 64)
	neurons := 0
	for i := range plans {
		if plans[i], err = s.Plan(id, conv, 0, op); err != nil {
			b.Fatal(err)
		}
		neurons += len(plans[i].Neurons)
	}
	out := op.Out.Data()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ch := range Apply(plans[i%len(plans)], conv, op) {
			out[ch.Flat] = ch.Golden
		}
	}
	b.ReportMetric(float64(neurons)/float64(len(plans)), "neurons/op")
}

func BenchmarkApplyBeforeCBUFInput(b *testing.B)  { benchApply(b, BeforeCBUFInput) }
func BenchmarkApplyBeforeCBUFWeight(b *testing.B) { benchApply(b, BeforeCBUFWeight) }
