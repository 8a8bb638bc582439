package accel

import (
	"math"
	"testing"

	"fidelity/internal/numerics"
)

func TestNVDLASmallValid(t *testing.T) {
	c := NVDLASmall()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.AtomicK != 16 || c.WeightHoldCycles != 16 {
		t.Errorf("NVDLA atomics k=%d t=%d, want 16/16", c.AtomicK, c.WeightHoldCycles)
	}
}

func TestNVDLACensusMatchesTableII(t *testing.T) {
	c := NVDLASmall()
	want := map[string]float64{
		"before CBUF/input":         0.025,
		"before CBUF/weight":        0.048,
		"between CBUF & MAC/input":  0.162,
		"between CBUF & MAC/weight": 0.216,
		"inside MAC/output":         0.379,
		"local control":             0.057,
		"global control":            0.113,
	}
	got := map[string]float64{}
	for _, g := range c.Census {
		got[g.Cat.String()] = g.Frac
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("census %q = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("census has %d groups, want %d", len(got), len(want))
	}
}

func TestConfigValidateCatchesErrors(t *testing.T) {
	c := NVDLASmall()
	c.AtomicK = 0
	if err := c.Validate(); err == nil {
		t.Error("zero atomic-K should fail")
	}
	c = NVDLASmall()
	c.Census[0].Frac = 0.5
	if err := c.Validate(); err == nil {
		t.Error("non-normalized census should fail")
	}
	c = NVDLASmall()
	c.Census[1].DecompressFrac = 1.5
	if err := c.Validate(); err == nil {
		t.Error("excess sub-fractions should fail")
	}
	c = NVDLASmall()
	c.NumFFs = 0
	if err := c.Validate(); err == nil {
		t.Error("zero FF count should fail")
	}
	c = NVDLASmall()
	c.FetchBytesPerCycle = 0
	if err := c.Validate(); err == nil {
		t.Error("zero bandwidth should fail")
	}
}

func TestLayerSpecCounts(t *testing.T) {
	l := ConvSpec("c", 1, 8, 8, 32, 3, 3, 16, 1, numerics.FP16)
	if l.OutNeurons() != 8*8*32 {
		t.Errorf("OutNeurons = %d", l.OutNeurons())
	}
	if l.MACs() != 8*8*32*3*3*16 {
		t.Errorf("MACs = %d", l.MACs())
	}
	if l.WeightBytes() != 3*3*16*32*2 {
		t.Errorf("WeightBytes = %d", l.WeightBytes())
	}
	if l.InputBytes() != int64(10*10*16*2) {
		t.Errorf("InputBytes = %d", l.InputBytes())
	}
	if err := l.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFCAndMatMulSpecs(t *testing.T) {
	fc := FCSpec("f", 4, 128, 10, numerics.INT8)
	if fc.OutNeurons() != 40 || fc.MACs() != 4*128*10 {
		t.Errorf("FC counts: %d neurons, %d MACs", fc.OutNeurons(), fc.MACs())
	}
	if fc.WeightBytes() != 128*10 {
		t.Errorf("FC INT8 WeightBytes = %d", fc.WeightBytes())
	}
	mm := MatMulSpec("m", 32, 64, 48, numerics.FP16)
	if mm.OutNeurons() != 32*48 || mm.MACs() != 32*64*48 {
		t.Errorf("MatMul counts: %d neurons, %d MACs", mm.OutNeurons(), mm.MACs())
	}
	if mm.WeightBytes() != 64*48*2 {
		t.Errorf("MatMul WeightBytes = %d", mm.WeightBytes())
	}
}

func TestLayerSpecValidate(t *testing.T) {
	bad := ConvSpec("c", 1, 0, 8, 32, 3, 3, 16, 1, numerics.FP16)
	if err := bad.Validate(); err == nil {
		t.Error("zero output height should fail")
	}
}

func TestStringers(t *testing.T) {
	if BeforeCBUF.String() == "" || CBUFToMAC.String() == "" || InsideMAC.String() == "" || AfterMAC.String() == "" {
		t.Error("position strings empty")
	}
	for _, v := range []VarType{VarInput, VarWeight, VarBias, VarPartialSum, VarOutput} {
		if v.String() == "" {
			t.Error("vartype string empty")
		}
	}
	for _, c := range []Component{CompFetch, CompSequencer, CompMAC, CompPost, CompConfig} {
		if c.String() == "" {
			t.Error("component string empty")
		}
	}
	for _, k := range []LayerKind{LayerConv, LayerFC, LayerMatMul} {
		if k.String() == "" {
			t.Error("layerkind string empty")
		}
	}
	if (Category{Class: Datapath, Var: VarInput, Pos: BeforeCBUF}).String() != "before CBUF/input" {
		t.Error("category string format changed")
	}
}

// TestFingerprint: stable for identical configs, sensitive to every
// analysis-relevant field — campaign checkpoints pin results to it.
func TestFingerprint(t *testing.T) {
	a, b := NVDLASmall(), NVDLASmall()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configs fingerprint differently")
	}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"Name", func(c *Config) { c.Name = "other" }},
		{"AtomicK", func(c *Config) { c.AtomicK++ }},
		{"AtomicC", func(c *Config) { c.AtomicC++ }},
		{"WeightHoldCycles", func(c *Config) { c.WeightHoldCycles++ }},
		{"NumFFs", func(c *Config) { c.NumFFs++ }},
		{"FetchBytesPerCycle", func(c *Config) { c.FetchBytesPerCycle++ }},
		{"CBUFBytes", func(c *Config) { c.CBUFBytes++ }},
		{"Census frac", func(c *Config) {
			cs := append([]FFGroup(nil), c.Census...)
			cs[0].Frac += 0.001
			c.Census = cs
		}},
		{"Census dropped", func(c *Config) { c.Census = c.Census[1:] }},
	}
	for _, m := range mutations {
		c := *NVDLASmall()
		m.mut(&c)
		if c.Fingerprint() == a.Fingerprint() {
			t.Errorf("mutating %s did not change the fingerprint", m.name)
		}
	}
}
