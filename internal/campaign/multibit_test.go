package campaign

import (
	"math/rand"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/nn"
	"fidelity/internal/rtlsim"
)

// Multi-bit single-register faults (the paper's extended abstraction) must
// still match the software fault models exactly for datapath registers.
func TestMultiBitRegisterFaultsMatch(t *testing.T) {
	ws, err := TableIIIWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	cfg := accel.NVDLASmall()
	w := ws[0] // inception conv
	ref, err := rtlsim.NewReference(cfg, w.RTL)
	if err != nil {
		t.Fatal(err)
	}
	golden := ref.Golden()
	start, end := ref.ComputeWindow()
	rng := rand.New(rand.NewSource(77))
	rep := &ValidationReport{}
	checked := 0
	out := golden.Out.Clone()
	for trial := 0; trial < 200 && checked < 25; trial++ {
		cyc := start + rng.Int63n(end-start)
		si := ref.Locate(cyc)
		if si.Phase != rtlsim.PhaseMAC {
			continue
		}
		mac := rng.Intn(cfg.AtomicK)
		_, wIdx := ref.OperandIndices(si, mac)
		if wIdx < 0 {
			continue
		}
		f := &rtlsim.Fault{
			FF: rtlsim.FFWReg, Mac: mac,
			Bit:       rng.Intn(16),
			ExtraBits: []int{rng.Intn(16), rng.Intn(16)},
			Cycle:     cyc,
		}
		faulty := ref.Run(*f, out)
		if faulty.TimedOut || len(golden.Out.DiffIndices(faulty.Out, 0)) == 0 {
			continue
		}
		checked++
		ov := &nn.Override{Kind: nn.OperandWeight, Flat: wIdx}
		set := weightNeurons(cfg, ref, si, mac, si.Dx)
		if err := rep.checkRecomputeAt(w, golden.Out, faulty.Out, ov, f, set); err != nil {
			t.Fatal(err)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d multi-bit faults checked", checked)
	}
	if rep.DatapathExact != rep.DatapathChecked {
		t.Errorf("multi-bit exact matches %d/%d: %v", rep.DatapathExact, rep.DatapathChecked, rep.Mismatches)
	}
}
