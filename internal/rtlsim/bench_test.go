package rtlsim

import (
	"math/rand"
	"testing"

	"fidelity/internal/numerics"
)

// benchLayer is the shape of Table III's inception 3×3 conv (8×8×4 → 18
// channels, FP16): 8 tiles on the nvdla-small design, the second channel
// group ragged.
func benchLayer() *Layer {
	l, _, _ := randConvLayer(101, numerics.MustCodec(numerics.FP16, 0), 8, 8, 4, 18, 3, 1, 1)
	return l
}

// benchFaults draws n held-weight-register faults over the compute window,
// the fault family the repo benchmark's rtlsim.run_ms_p50 times.
func benchFaults(ref *Reference, n int) []Fault {
	rng := rand.New(rand.NewSource(7))
	start, end := ref.ComputeWindow()
	fs := make([]Fault, n)
	for i := range fs {
		fs[i] = Fault{FF: FFWReg, Mac: rng.Intn(16), Bit: rng.Intn(16), Cycle: start + rng.Int63n(end-start)}
	}
	return fs
}

// BenchmarkRun times one from-cycle-0 injection.
func BenchmarkRun(b *testing.B) {
	cfg, l := nvdla(), benchLayer()
	ref, err := NewReference(cfg, l)
	if err != nil {
		b.Fatal(err)
	}
	fs := benchFaults(ref, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, l, &fs[i%len(fs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReferenceRun times the same injections resumed from a Reference.
func BenchmarkReferenceRun(b *testing.B) {
	ref, err := NewReference(nvdla(), benchLayer())
	if err != nil {
		b.Fatal(err)
	}
	fs := benchFaults(ref, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.Run(fs[i%len(fs)])
	}
}

// BenchmarkGoldenStep times the fault-free compute phase — every cycle on
// the lean path — and reports simulated cycles per host second.
func BenchmarkGoldenStep(b *testing.B) {
	ref, err := NewReference(nvdla(), benchLayer())
	if err != nil {
		b.Fatal(err)
	}
	start, end := ref.ComputeWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if o := ref.engine().simulate(nil); o.Cycles != end {
			b.Fatalf("golden run took %d cycles, want %d", o.Cycles, end)
		}
	}
	b.ReportMetric(float64(b.N)*float64(end-start)/b.Elapsed().Seconds(), "cycles/s")
}
