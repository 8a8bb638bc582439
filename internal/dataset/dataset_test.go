package dataset

import (
	"math"
	"testing"
)

func TestImageProperties(t *testing.T) {
	img := Image(32, 32, 3, 1)
	if img.Dim(0) != 1 || img.Dim(1) != 32 || img.Dim(2) != 32 || img.Dim(3) != 3 {
		t.Fatalf("shape = %v", img.Shape())
	}
	for _, v := range img.Data() {
		if v < -1 || v > 1 || math.IsNaN(float64(v)) {
			t.Fatalf("pixel %v outside [-1,1]", v)
		}
	}
	// Images must have spatial structure (not white noise): neighboring
	// pixels correlate.
	var same, diff float64
	for y := 0; y < 31; y++ {
		for x := 0; x < 31; x++ {
			a := float64(img.At(0, y, x, 0))
			same += math.Abs(a - float64(img.At(0, y, x+1, 0)))
			diff += math.Abs(a - float64(img.At(0, (y+16)%32, (x+16)%32, 0)))
		}
	}
	if same >= diff {
		t.Error("image lacks spatial correlation")
	}
}

func TestImageDeterministicPerSeed(t *testing.T) {
	a := Image(16, 16, 3, 7)
	b := Image(16, 16, 3, 7)
	c := Image(16, 16, 3, 8)
	if !a.Equal(b) {
		t.Error("same seed must reproduce the image")
	}
	if a.Equal(c) {
		t.Error("different seeds should differ")
	}
}

func TestTokens(t *testing.T) {
	toks := Tokens(24, 64, 3)
	if len(toks) != 24 {
		t.Fatalf("len = %d", len(toks))
	}
	for _, tk := range toks {
		if tk < 0 || tk >= 64 {
			t.Fatalf("token %d out of vocab", tk)
		}
	}
	toks2 := Tokens(24, 64, 3)
	for i := range toks {
		if toks[i] != toks2[i] {
			t.Fatal("tokens not deterministic")
		}
	}
}

func TestTimeSeries(t *testing.T) {
	ts := TimeSeries(48, 6, 5)
	if ts.Dim(0) != 48 || ts.Dim(1) != 6 {
		t.Fatalf("shape = %v", ts.Shape())
	}
	// Signals should oscillate: both signs present per channel.
	for ch := 0; ch < 6; ch++ {
		pos, neg := false, false
		for s := 0; s < 48; s++ {
			if ts.At(s, ch) > 0 {
				pos = true
			}
			if ts.At(s, ch) < 0 {
				neg = true
			}
		}
		if !pos || !neg {
			t.Errorf("channel %d does not oscillate", ch)
		}
	}
}

func TestSampleAllDatasets(t *testing.T) {
	for _, name := range []Name{ImagenetLike, Cifar10Like, COCOLike, IWSLTLike, HARLike} {
		x, err := Sample(name, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if x.Size() == 0 {
			t.Fatalf("%s: empty sample", name)
		}
		y, _ := Sample(name, 3)
		if !x.Equal(y) {
			t.Errorf("%s: sample 3 not deterministic", name)
		}
		z, _ := Sample(name, 4)
		if x.Equal(z) {
			t.Errorf("%s: samples 3 and 4 identical", name)
		}
	}
	if _, err := Sample("mnist", 0); err == nil {
		t.Error("unknown dataset should fail")
	}
}

// TestSampleAllocations bounds what one sample costs the heap: the tensor
// and its buffers, not an allocation per element written (the accessors'
// index stays on the stack).
func TestSampleAllocations(t *testing.T) {
	for _, name := range []Name{Cifar10Like, IWSLTLike, HARLike} {
		if got := testing.AllocsPerRun(10, func() { Sample(name, 3) }); got > 10 {
			t.Errorf("Sample(%s): %v allocs, want at most 10", name, got)
		}
	}
}
