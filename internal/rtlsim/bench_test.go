package rtlsim

import (
	"math/rand"
	"testing"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// benchLayer is the shape of Table III's inception 3×3 conv (8×8×4 → 18
// channels, FP16): 8 tiles on the nvdla-small design, the second channel
// group ragged.
func benchLayer() *Layer {
	l, _, _ := randConvLayer(101, numerics.MustCodec(numerics.FP16, 0), 8, 8, 4, 18, 3, 1, 1)
	return l
}

// benchFaults draws n faults on the given FFs at cycles in [lo, hi).
func benchFaults(n int, ffs []FF, lo, hi int64) []Fault {
	rng := rand.New(rand.NewSource(7))
	fs := make([]Fault, n)
	for i := range fs {
		fs[i] = Fault{FF: ffs[rng.Intn(len(ffs))], Mac: rng.Intn(16), Bit: rng.Intn(16), Cycle: lo + rng.Int63n(hi-lo)}
	}
	return fs
}

// wregFaults are held-weight-register faults over the compute window, the
// fault family the repo benchmark's rtlsim.run_ms_p50 times.
func wregFaults(ref *Reference) []Fault {
	start, end := ref.ComputeWindow()
	return benchFaults(256, []FF{FFWReg}, start, end)
}

// BenchmarkRun times one from-cycle-0 injection.
func BenchmarkRun(b *testing.B) {
	cfg, l := nvdla(), benchLayer()
	ref, err := NewReference(cfg, l)
	if err != nil {
		b.Fatal(err)
	}
	fs := wregFaults(ref)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, l, &fs[i%len(fs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// groupFaults are wregFaults' kind restricted to the tiles of channel group
// grp. benchLayer's group 1 holds 2 channels, which HalfMulAddPanel runs in
// its Go tail; group 0 holds 16, which its lanes take.
func groupFaults(ref *Reference, grp int) []Fault {
	start, end := ref.ComputeWindow()
	var fs []Fault
	for _, f := range benchFaults(1024, []FF{FFWReg}, start, end) {
		if ref.Locate(f.Cycle).Grp == grp {
			fs = append(fs, f)
		}
	}
	return fs
}

// BenchmarkReferenceRun times injections resumed from a Reference, by FF
// family: held weights (re-converge within their tile), config registers
// (run to the end or to the watchdog) and the CDMA registers (the whole
// compute phase on a private CBUF); and held weights by channel group, the
// narrow second group of the 18-channel layer against the wide first.
func BenchmarkReferenceRun(b *testing.B) {
	ref, err := NewReference(nvdla(), benchLayer())
	if err != nil {
		b.Fatal(err)
	}
	start, end := ref.ComputeWindow()
	out := tensor.New(ref.Golden().Out.Shape()...)
	for _, bc := range []struct {
		name string
		fs   []Fault
	}{
		{"wreg", wregFaults(ref)},
		{"cfg", benchFaults(256, []FF{FFCfgPos, FFCfgCh, FFCfgRed}, start, end)},
		{"cdma", benchFaults(256, []FF{FFCDMAIn0, FFCDMAIn1, FFCDMAWt0, FFCDMAWt1}, 0, start-2)},
		{"wide", groupFaults(ref, 0)},
		{"narrow", groupFaults(ref, 1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ref.Run(bc.fs[i%len(bc.fs)], out)
			}
		})
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
	out := tensor.New(ref.Golden().Out.Shape()...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := ref.engine(out)
		if o := e.simulate(nil); o.Cycles != end {
			b.Fatalf("golden run took %d cycles, want %d", o.Cycles, end)
		}
		ref.release(e)
	}
	b.ReportMetric(float64(b.N)*float64(end-start)/b.Elapsed().Seconds(), "cycles/s")
}
