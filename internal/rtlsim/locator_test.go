package rtlsim

import (
	"math/rand"
	"testing"

	"fidelity/internal/numerics"
)

// The locator's schedule arithmetic must agree with the engine: injecting a
// WReg fault at a located MAC cycle must corrupt exactly the suffix of the
// located block in the located MAC's channel.
func TestLocateAgreesWithEngine(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	cfg := nvdla()
	l, _, _ := randConvLayer(21, codec, 8, 8, 2, 4, 3, 1, 1)
	ref, err := NewReference(cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	start, end := ref.ComputeWindow()
	golden := ref.Golden()
	rng := rand.New(rand.NewSource(21))
	checked := 0
	for trial := 0; trial < 60 && checked < 15; trial++ {
		cyc := start + rng.Int63n(end-start)
		si := ref.Locate(cyc)
		if si.Phase != PhaseMAC {
			continue
		}
		mac := rng.Intn(4)
		ch := si.Channel(cfg, mac)
		_, wIdx := ref.OperandIndices(si, mac)
		if wIdx < 0 {
			continue
		}
		f := &Fault{FF: FFWReg, Mac: mac, Bit: 14, Cycle: cyc}
		faulty, err := Run(cfg, l, f)
		if err != nil {
			t.Fatal(err)
		}
		diffs := golden.Out.DiffIndices(faulty.Out, 0)
		if len(diffs) == 0 {
			continue
		}
		checked++
		numPos := ref.sched.numPos
		// Predicted faulty set: positions p = blk*t+dx .. block end, channel ch.
		predicted := map[int]bool{}
		for dx := si.Dx; dx < si.BlockSize; dx++ {
			p := si.Blk*cfg.WeightHoldCycles + dx
			if p >= numPos {
				break
			}
			idx, err := ref.OutIndexOf(p, ch)
			if err != nil {
				t.Fatal(err)
			}
			predicted[golden.Out.Offset(idx...)] = true
		}
		for _, off := range diffs {
			if !predicted[off] {
				t.Fatalf("cycle %d: corrupted neuron %v outside predicted set (site %+v)",
					cyc, golden.Out.Unflatten(off), si)
			}
		}
	}
	if checked < 5 {
		t.Fatalf("only %d visible wreg faults located", checked)
	}
}

// Located input-register faults must corrupt only the located position's
// channel group.
func TestLocateInputRegGroup(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	cfg := nvdla()
	l, _, _ := randConvLayer(22, codec, 6, 6, 2, 32, 3, 1, 1)
	ref, err := NewReference(cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	start, end := ref.ComputeWindow()
	golden := ref.Golden()
	rng := rand.New(rand.NewSource(22))
	checked := 0
	for trial := 0; trial < 80 && checked < 10; trial++ {
		cyc := start + rng.Int63n(end-start)
		si := ref.Locate(cyc)
		if si.Phase != PhaseMAC {
			continue
		}
		inIdx, _ := ref.OperandIndices(si, 0)
		if inIdx < 0 {
			continue // padding operand
		}
		f := &Fault{FF: FFInputReg, Bit: 14, Cycle: cyc}
		faulty, _ := Run(cfg, l, f)
		diffs := golden.Out.DiffIndices(faulty.Out, 0)
		if len(diffs) == 0 {
			continue
		}
		checked++
		p := si.Position(cfg)
		for _, off := range diffs {
			idx := golden.Out.Unflatten(off)
			gotP := (idx[0]*golden.Out.Dim(1)+idx[1])*golden.Out.Dim(2) + idx[2]
			if gotP != p {
				t.Fatalf("input-reg fault at position %d corrupted position %d", p, gotP)
			}
			if idx[3]/cfg.AtomicK != si.Grp {
				t.Fatalf("input-reg fault crossed channel group")
			}
		}
	}
	if checked < 3 {
		t.Fatalf("only %d visible input-reg faults located", checked)
	}
}

// Phase layout: cycle 0 is fetch; the first compute cycle is a load; the
// cycle after the last is idle.
func TestLocatePhases(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	cfg := nvdla()
	l, _, _ := randConvLayer(23, codec, 5, 5, 2, 4, 3, 1, 1)
	ref, err := NewReference(cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	si := ref.Locate(0)
	if si.Phase != PhaseFetch {
		t.Errorf("cycle 0: %v", si.Phase)
	}
	start, end := ref.ComputeWindow()
	si = ref.Locate(start)
	if si.Phase != PhaseLoad || si.Blk != 0 || si.Grp != 0 || si.R != 0 {
		t.Errorf("first compute cycle: %+v", si)
	}
	si = ref.Locate(start + 1)
	if si.Phase != PhaseMAC || si.Dx != 0 {
		t.Errorf("second compute cycle: %+v", si)
	}
	si = ref.Locate(end)
	if si.Phase != PhaseIdle {
		t.Errorf("post-end cycle: %+v", si)
	}
	for _, p := range []Phase{PhaseFetch, PhaseLoad, PhaseMAC, PhaseWB, PhaseIdle} {
		if p.String() == "" {
			t.Error("empty phase name")
		}
	}
}

// Every compute cycle must locate to a non-idle phase, and the WB positions/
// channels must be in range.
func TestLocateCoverageExhaustive(t *testing.T) {
	codec := numerics.MustCodec(numerics.FP16, 0)
	cfg := nvdla()
	l, _, _ := randConvLayer(24, codec, 5, 5, 2, 4, 3, 1, 1)
	ref, err := NewReference(cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	start, end := ref.ComputeWindow()
	numPos, numCh := ref.sched.numPos, ref.sched.numCh
	for cyc := start; cyc < end; cyc++ {
		si := ref.Locate(cyc)
		if si.Phase == PhaseIdle || si.Phase == PhaseFetch {
			t.Fatalf("compute cycle %d located as %v", cyc, si.Phase)
		}
		if si.Phase == PhaseWB {
			if p := si.Position(cfg); p < 0 || p >= numPos {
				t.Fatalf("wb position %d out of range at cycle %d", p, cyc)
			}
			if c := si.Channel(cfg, 0); c < 0 || c >= ((numCh+15)/16)*16 {
				t.Fatalf("wb channel %d out of range at cycle %d", c, cyc)
			}
		}
	}
}
