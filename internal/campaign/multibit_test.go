package campaign

import (
	"math/rand"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/faultmodel"
	"fidelity/internal/rtlsim"
)

// Multi-bit single-register faults (the paper's extended abstraction) must
// still match the software fault models exactly for datapath registers:
// Validate's check applies the plan with the fault's extra bits.
func TestMultiBitRegisterFaultsMatch(t *testing.T) {
	ws, err := TableIIIWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	cfg := accel.NVDLASmall()
	models, err := faultmodel.Derive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := faultmodel.NewSampler(models, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := newValidator(cfg, sampler, ws[0]) // inception conv
	if err != nil {
		t.Fatal(err)
	}
	start, end := v.ref.ComputeWindow()
	rng := rand.New(rand.NewSource(77))
	rep := &ValidationReport{}
	for trial := 0; trial < 200 && rep.DatapathChecked < 25; trial++ {
		cyc := start + rng.Int63n(end-start)
		if v.ref.Locate(cyc).Phase != rtlsim.PhaseMAC {
			continue
		}
		v.validateOne(&rtlsim.Fault{
			FF: rtlsim.FFWReg, Mac: rng.Intn(cfg.AtomicK),
			Bit:       rng.Intn(16),
			ExtraBits: []int{rng.Intn(16), rng.Intn(16)},
			Cycle:     cyc,
		}, rep)
	}
	if rep.DatapathChecked < 10 {
		t.Fatalf("only %d multi-bit faults checked", rep.DatapathChecked)
	}
	if rep.DatapathExact != rep.DatapathChecked || len(rep.Mismatches) > 0 {
		t.Errorf("multi-bit exact matches %d/%d: %v", rep.DatapathExact, rep.DatapathChecked, rep.Mismatches)
	}
}
