package campaign

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"fidelity/internal/accel"
	"fidelity/internal/rtlsim"
)

func TestWilsonInterval(t *testing.T) {
	var p Proportion
	for i := 0; i < 100; i++ {
		p.Add(i < 30)
	}
	if p.Mean() != 0.3 {
		t.Fatalf("mean = %v", p.Mean())
	}
	lo, hi := p.Wilson(1.96)
	if !(lo < 0.3 && 0.3 < hi) {
		t.Errorf("interval [%v, %v] must contain the mean", lo, hi)
	}
	if hi-lo > 0.2 {
		t.Errorf("interval too wide for n=100: %v", hi-lo)
	}
	if p.String() == "" {
		t.Error("empty string")
	}
}

func TestWilsonEmpty(t *testing.T) {
	var p Proportion
	lo, hi := p.Wilson(1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("empty interval = [%v, %v]", lo, hi)
	}
	if p.Mean() != 0 {
		t.Error("empty mean must be 0")
	}
}

// Interval width shrinks as ~1/√n.
func TestWilsonShrinks(t *testing.T) {
	widths := []float64{}
	for _, n := range []int{10, 100, 1000} {
		var p Proportion
		for i := 0; i < n; i++ {
			p.Add(i%2 == 0)
		}
		widths = append(widths, p.HalfWidth())
	}
	if !(widths[0] > widths[1] && widths[1] > widths[2]) {
		t.Errorf("widths not shrinking: %v", widths)
	}
}

func TestSamplesFor(t *testing.T) {
	n := SamplesFor(0.01)
	if n < 9000 || n > 11000 {
		t.Errorf("SamplesFor(0.01) = %d, want ~9604", n)
	}
	if SamplesFor(0) != math.MaxInt32 {
		t.Error("zero width must be unbounded")
	}
}

func TestTableIIIWorkloads(t *testing.T) {
	ws, err := TableIIIWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 6 {
		t.Fatalf("workloads = %d, want 6 (Table III)", len(ws))
	}
	// Every workload's golden RTL run must agree with the software layer.
	cfg := accel.NVDLASmall()
	for _, w := range ws {
		o, err := rtlsim.Run(cfg, w.RTL, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if o.TimedOut {
			t.Fatalf("%s: golden timed out", w.Name)
		}
	}
}

// The core validation claim (paper Sec. IV-C): across a sampled campaign,
// every checked datapath case matches the software fault model exactly,
// every local-control case lands on the predicted neuron, and global faults
// are mostly non-masked. It holds at several design points: only k
// (AtomicK) and t (WeightHoldCycles) move, the census does not. Validate
// checks the RTL against the plans the campaign's models make at the RFs
// Derive gives each point (Table II's RF column: k for the CBUF→MAC input,
// t for the weight), so the exact matches hold that column to the
// cycle-level reference — where k ≠ t, and at (6, 10), which divides
// neither the layers' channel counts nor their position counts.
// NVDLASmall's k = t cannot tell the two RFs apart.
func TestValidationCampaign(t *testing.T) {
	ws, err := TableIIIWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	for _, kt := range [][2]int{{16, 16}, {4, 16}, {16, 4}, {8, 3}, {6, 10}} {
		cfg := accel.NVDLASmall()
		cfg.AtomicK, cfg.WeightHoldCycles = kt[0], kt[1]
		t.Run(fmt.Sprintf("k%d-t%d", kt[0], kt[1]), func(t *testing.T) {
			rep, err := Validate(cfg, ws, 1000, 7)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Total != 1000*len(ws) {
				t.Fatalf("total = %d", rep.Total)
			}
			if rep.NonMasked == 0 || rep.DatapathChecked == 0 {
				t.Fatalf("%d non-masked cases, %d datapath cases checked", rep.NonMasked, rep.DatapathChecked)
			}
			for i, m := range rep.Mismatches {
				if i == 5 {
					t.Errorf("… %d mismatches in all", len(rep.Mismatches))
					break
				}
				t.Errorf("mismatch: %s", m)
			}
			if rep.DatapathExact != rep.DatapathChecked {
				t.Errorf("datapath exact matches %d/%d", rep.DatapathExact, rep.DatapathChecked)
			}
			if rep.SetMatch != rep.SetChecked {
				t.Errorf("set matches %d/%d", rep.SetMatch, rep.SetChecked)
			}
			if rep.LocalMatch != rep.LocalChecked {
				t.Errorf("local matches %d/%d", rep.LocalMatch, rep.LocalChecked)
			}
			// Paper: ~9.5% of active global-control faults are masked.
			// Accept a generous band around that.
			if frac := rep.GlobalMaskedFrac(); frac > 0.5 {
				t.Errorf("global masked fraction %v too high for the always-fail model", frac)
			}
		})
	}
}

// Time-outs must occur in a large enough campaign and must all come from
// global control faults (paper: all 72 time-outs were global).
func TestValidationTimeoutsAreGlobal(t *testing.T) {
	ws, err := TableIIIWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	cfg := accel.NVDLASmall()
	rep, err := Validate(cfg, ws[:2], 300, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Mismatches {
		t.Errorf("mismatch: %s", m)
	}
	if rep.Timeouts == 0 {
		t.Log("no timeouts in this sample (acceptable but unusual)")
	}
}

// A validation that injects nothing is rejected, not reported as agreement.
func TestValidateRejectsNonPositiveSamples(t *testing.T) {
	ws, err := TableIIIWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -5} {
		rep, err := Validate(accel.NVDLASmall(), ws, n, 1)
		var bad *OptionError
		if !errors.As(err, &bad) || bad.Option != "samples" || rep != nil {
			t.Errorf("Validate(samples=%d) = %v, %v; want an OptionError naming samples", n, rep, err)
		}
	}
}

func TestGlobalMaskedFracEmpty(t *testing.T) {
	r := &ValidationReport{}
	if r.GlobalMaskedFrac() != 0 {
		t.Error("empty report should report 0")
	}
}
