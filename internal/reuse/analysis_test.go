package reuse

import (
	"testing"
	"testing/quick"

	"fidelity/internal/accel"
)

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(Input{}); err == nil {
		t.Error("empty input should fail")
	}
	in := NVDLATargetA1(4)
	in.FFValueCycles = 0
	if _, err := Analyze(in); err == nil {
		t.Error("zero FF_value_cycles should fail")
	}
	in = NVDLATargetA1(4)
	in.InEffectCycles = func(m UnitID, l int) int { return -1 }
	if _, err := Analyze(in); err == nil {
		t.Error("negative in_effect_cycles should fail")
	}
}

// Fig 2(a): target a1 affects t consecutive neurons in one output channel.
func TestFig2aTargetA1(t *testing.T) {
	const tt = 16
	r, err := Analyze(NVDLATargetA1(tt))
	if err != nil {
		t.Fatal(err)
	}
	if r.RF != tt {
		t.Fatalf("a1 RF = %d, want %d", r.RF, tt)
	}
	for i, f := range r.Faulty {
		want := Neuron{W: i}
		if f.Neuron != want {
			t.Errorf("a1 neuron %d = %v, want %v", i, f.Neuron, want)
		}
		if f.Loop != 0 {
			t.Errorf("a1 loop timestamp = %d, want 0 (single-cycle value)", f.Loop)
		}
	}
}

// Fig 2(a): target a2 affects the same neuron set as a1 but with loop
// timestamps spanning the hold window, so a random injection cycle yields
// between 1 and t faulty neurons.
func TestFig2aTargetA2(t *testing.T) {
	const tt = 16
	r, err := Analyze(NVDLATargetA2(tt))
	if err != nil {
		t.Fatal(err)
	}
	if r.RF != tt {
		t.Fatalf("a2 RF = %d, want %d", r.RF, tt)
	}
	a1, _ := Analyze(NVDLATargetA1(tt))
	inA1 := map[Neuron]bool{}
	for _, f := range a1.Faulty {
		inA1[f.Neuron] = true
	}
	for _, f := range r.Faulty {
		if !inA1[f.Neuron] {
			t.Errorf("a2 neuron %v is not in a1's set", f.Neuron)
		}
	}
	// Timestamps must be 0..t-1: an injection p cycles into the hold window
	// corrupts the neurons with timestamp >= p, between 1 and t of them.
	for i, f := range r.Faulty {
		if f.Loop != i {
			t.Errorf("a2 loop[%d] = %d", i, f.Loop)
		}
	}
}

// Ablation of the weight-hold parameter (FF_value_cycles): the held weight
// register's RF is t itself.
func TestWeightRFEqualsHoldCycles(t *testing.T) {
	for _, tt := range []int{1, 4, 16, 64} {
		r, err := Analyze(NVDLATargetA2(tt))
		if err != nil {
			t.Fatal(err)
		}
		if r.RF != tt {
			t.Errorf("t=%d: weight RF = %d", tt, r.RF)
		}
	}
}

// Fig 2(a): target a3's faulty value lasts one cycle: RF = 1.
func TestFig2aTargetA3(t *testing.T) {
	r, err := Analyze(NVDLATargetA3())
	if err != nil {
		t.Fatal(err)
	}
	if r.RF != 1 {
		t.Errorf("a3 RF = %d, want 1", r.RF)
	}
}

// Fig 2(a): target a4 is broadcast to k² multipliers: RF = k², spanning k²
// consecutive channels at one 2-D position.
func TestFig2aTargetA4(t *testing.T) {
	const k2 = 16
	r, err := Analyze(NVDLATargetA4(k2))
	if err != nil {
		t.Fatal(err)
	}
	if r.RF != k2 {
		t.Fatalf("a4 RF = %d, want %d", r.RF, k2)
	}
	for i, f := range r.Faulty {
		if f.Neuron.H != 0 || f.Neuron.W != 0 || f.Neuron.Batch != 0 {
			t.Errorf("a4 neuron %d not at same 2D position: %v", i, f.Neuron)
		}
		if f.Neuron.C != i {
			t.Errorf("a4 neuron %d channel = %d", i, f.Neuron.C)
		}
	}
}

// Fig 2(b): target b1 (systolic weight) corrupts k consecutive rows in one
// column: RF = k.
func TestFig2bTargetB1(t *testing.T) {
	const k = 12
	r, err := Analyze(EyerissTargetB1(k))
	if err != nil {
		t.Fatal(err)
	}
	if r.RF != k {
		t.Fatalf("b1 RF = %d, want %d", r.RF, k)
	}
	for i, f := range r.Faulty {
		if f.Neuron.H != i || f.Neuron.W != 0 || f.Neuron.C != 0 {
			t.Errorf("b1 neuron %d = %v, want row %d col 0", i, f.Neuron, i)
		}
	}
}

// Fig 2(b): target b2 (diagonal input reuse) has RF = k·t across t channels
// × k rows.
func TestFig2bTargetB2(t *testing.T) {
	const k, tt = 12, 7
	r, err := Analyze(EyerissTargetB2(k, tt))
	if err != nil {
		t.Fatal(err)
	}
	if r.RF != k*tt {
		t.Fatalf("b2 RF = %d, want %d", r.RF, k*tt)
	}
	rows := map[int]bool{}
	chans := map[int]bool{}
	for _, f := range r.Faulty {
		rows[f.Neuron.H] = true
		chans[f.Neuron.C] = true
		if f.Neuron.W != 0 {
			t.Errorf("b2 neuron outside last column: %v", f.Neuron)
		}
	}
	if len(rows) != k || len(chans) != tt {
		t.Errorf("b2 spans %d rows × %d channels, want %d × %d", len(rows), len(chans), k, tt)
	}
}

// Fig 2(b): target b3 (bias) has RF = 1.
func TestFig2bTargetB3(t *testing.T) {
	r, err := Analyze(EyerissTargetB3())
	if err != nil {
		t.Fatal(err)
	}
	if r.RF != 1 {
		t.Errorf("b3 RF = %d, want 1", r.RF)
	}
}

// Datapath RF Property (4): along a datapath flow, RF must not increase in
// later pipeline stages. a1 (earlier) vs a2 vs a3 (later) demonstrate the
// monotone chain t >= t >= 1.
func TestRFMonotoneAlongPipeline(t *testing.T) {
	const tt = 16
	a1, _ := Analyze(NVDLATargetA1(tt))
	a2, _ := Analyze(NVDLATargetA2(tt))
	a3, _ := Analyze(NVDLATargetA3())
	if !(a1.RF >= a2.RF && a2.RF >= a3.RF) {
		t.Errorf("RF chain %d >= %d >= %d violated", a1.RF, a2.RF, a3.RF)
	}
}

// Property: RF always equals the number of distinct faulty neurons, and
// never exceeds the total loop×unit×cycle work.
func TestRFBoundsProperty(t *testing.T) {
	f := func(holdRaw, unitsRaw, effRaw uint8) bool {
		hold := int(holdRaw%4) + 1
		nu := int(unitsRaw%4) + 1
		eff := int(effRaw%4) + 1
		units := make([]UnitID, nu)
		for i := range units {
			units[i] = UnitID(i)
		}
		in := Input{
			FFValueCycles:  hold,
			Units:          func(l int) []UnitID { return units },
			InEffectCycles: func(m UnitID, l int) int { return eff },
			Neurons: func(m UnitID, y, l int) []Neuron {
				return []Neuron{{H: int(m), W: y, C: l}}
			},
		}
		r, err := Analyze(in)
		if err != nil {
			return false
		}
		if r.RF != len(r.Faulty) {
			return false
		}
		seen := map[Neuron]bool{}
		for _, fn := range r.Faulty {
			if seen[fn.Neuron] {
				return false // duplicates must be removed
			}
			seen[fn.Neuron] = true
		}
		return r.RF <= hold*nu*eff
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAnalyzeNVDLACategories(t *testing.T) {
	cfg := accel.NVDLASmall()
	crs, err := AnalyzeNVDLACategories(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(crs) != 5 {
		t.Fatalf("categories = %d, want 5", len(crs))
	}
	byCat := map[string]CategoryResult{}
	for _, cr := range crs {
		byCat[cr.Cat.String()] = cr
	}
	// Table II RF column.
	if !byCat["before CBUF/input"].AllUsers || !byCat["before CBUF/weight"].AllUsers {
		t.Error("before-CBUF categories must be all-users")
	}
	if rf := byCat["between CBUF & MAC/input"].Result.RF; rf != 16 {
		t.Errorf("CBUF→MAC input RF = %d, want 16", rf)
	}
	if rf := byCat["between CBUF & MAC/weight"].Result.RF; rf != 16 {
		t.Errorf("CBUF→MAC weight RF = %d, want 16", rf)
	}
	if rf := byCat["inside MAC/output"].Result.RF; rf != 1 {
		t.Errorf("output RF = %d, want 1", rf)
	}
}

func TestNeuronString(t *testing.T) {
	if (Neuron{1, 2, 3, 4}).String() != "(1,2,3,4)" {
		t.Error("neuron string format")
	}
}
