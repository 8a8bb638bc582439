package model

import (
	"testing"

	"fidelity/internal/dataset"
	"fidelity/internal/metrics"
	"fidelity/internal/nn"
	"fidelity/internal/numerics"
)

// Every model must build at every precision, run its dataset's input, and
// produce a deterministic, decodable output.
func TestAllModelsBuildAndRun(t *testing.T) {
	for _, name := range Names() {
		for _, p := range []numerics.Precision{numerics.FP32, numerics.FP16, numerics.INT16, numerics.INT8} {
			w, err := Build(name, p, 42)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, p, err)
			}
			x, err := dataset.Sample(w.Dataset, 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out := w.Net.Forward(x)
			out2 := w.Net.Forward(x)
			if !out.Equal(out2) {
				t.Errorf("%s/%v: inference is not deterministic", name, p)
			}
			ao := w.Decode(out)
			if ao.Raw == nil {
				t.Errorf("%s/%v: decode lost raw output", name, p)
			}
			if w.Score(ao, ao) != 1 {
				t.Errorf("%s/%v: self-score must be 1", name, p)
			}
			if !w.Correct(ao, w.Decode(out2), 0.1) {
				t.Errorf("%s/%v: identical runs must be correct", name, p)
			}
		}
	}
}

func TestBuildUnknown(t *testing.T) {
	if _, err := Build("alexnet", numerics.FP16, 1); err == nil {
		t.Error("unknown model should fail")
	}
}

// Every model must expose injection sites of the kinds its namesake
// exercises in the paper (Table III).
func TestModelsExposeExpectedSites(t *testing.T) {
	wantKinds := map[string][]nn.Kind{
		"inception":   {nn.KindConv, nn.KindFC},
		"resnet":      {nn.KindConv, nn.KindFC},
		"mobilenet":   {nn.KindConv, nn.KindFC},
		"yolo":        {nn.KindConv},
		"transformer": {nn.KindFC, nn.KindMatMul},
		"rnn":         {nn.KindFC},
	}
	for name, kinds := range wantKinds {
		w, err := Build(name, numerics.FP16, 1)
		if err != nil {
			t.Fatal(err)
		}
		have := map[nn.Kind]bool{}
		sites := nn.Sites(w.Net.Root)
		for _, s := range sites {
			have[s.Kind()] = true
		}
		for _, k := range kinds {
			if !have[k] {
				t.Errorf("%s: missing %v sites (have %v)", name, k, have)
			}
		}
		if len(sites) == 0 {
			t.Errorf("%s: no injection sites", name)
		}
	}
}

// Different seeds must give different outputs (weights actually random) but
// the same seed must give identical networks.
func TestSeedDeterminism(t *testing.T) {
	w1, _ := Build("resnet", numerics.FP16, 7)
	w2, _ := Build("resnet", numerics.FP16, 7)
	w3, _ := Build("resnet", numerics.FP16, 8)
	x, _ := dataset.Sample(dataset.Cifar10Like, 3)
	o1 := w1.Net.Forward(x)
	o2 := w2.Net.Forward(x)
	o3 := w3.Net.Forward(x)
	if !o1.Equal(o2) {
		t.Error("same seed must reproduce the network")
	}
	if o1.Equal(o3) {
		t.Error("different seeds should differ")
	}
}

// The classifier outputs must be proper distributions, and different inputs
// should usually yield different labels across a batch of samples.
func TestClassifierOutputs(t *testing.T) {
	w, _ := Build("inception", numerics.FP16, 11)
	labels := map[int]bool{}
	for i := 0; i < 8; i++ {
		x, _ := dataset.Sample(w.Dataset, i)
		out := w.Net.Forward(x)
		var sum float32
		for _, v := range out.Data() {
			if v < 0 || v > 1 {
				t.Fatalf("softmax output %v out of range", v)
			}
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("softmax sums to %v", sum)
		}
		labels[w.Decode(out).Label] = true
	}
	if len(labels) < 2 {
		t.Errorf("all 8 inputs mapped to one label — degenerate network")
	}
}

// Yolo must emit at least one box on some inputs (the detection metric needs
// a non-empty golden set to be meaningful).
func TestYoloEmitsBoxes(t *testing.T) {
	w, _ := Build("yolo", numerics.FP16, 5)
	total := 0
	for i := 0; i < 6; i++ {
		x, _ := dataset.Sample(w.Dataset, i)
		ao := w.Decode(w.Net.Forward(x))
		total += len(ao.Boxes)
		for _, b := range ao.Boxes {
			if b.W <= 0 || b.H <= 0 {
				t.Errorf("degenerate box %+v", b)
			}
		}
		// decodeBoxes indexes the head output flat; the bounds-checked
		// accessor is the oracle for which cells and anchors emit, in order.
		var scores []float64
		for gy := 0; gy < w.Grid; gy++ {
			for gx := 0; gx < w.Grid; gx++ {
				for an := 0; an < w.Anchors; an++ {
					if obj := sigmoid(ao.Raw.At(0, gy, gx, an*(5+w.Classes))); obj >= 0.5 {
						scores = append(scores, obj)
					}
				}
			}
		}
		if len(scores) != len(ao.Boxes) {
			t.Fatalf("scene %d: %d boxes decoded, %d anchors above threshold", i, len(ao.Boxes), len(scores))
		}
		for k, b := range ao.Boxes {
			if b.Score != scores[k] {
				t.Errorf("scene %d box %d: score %v, accessor %v", i, k, b.Score, scores[k])
			}
		}
	}
	if total == 0 {
		t.Error("yolo produced no boxes on 6 scenes")
	}
}

// Transformer decodes full-length token sequences; BLEU of the sequence with
// itself is 1.
func TestTransformerDecode(t *testing.T) {
	w, _ := Build("transformer", numerics.FP16, 9)
	x, _ := dataset.Sample(w.Dataset, 0)
	ao := w.Decode(w.Net.Forward(x))
	if len(ao.Tokens) != x.Dim(0) {
		t.Fatalf("decoded %d tokens for %d positions", len(ao.Tokens), x.Dim(0))
	}
	if metrics.BLEU(ao.Tokens, ao.Tokens) != 1 {
		t.Error("self-BLEU must be 1")
	}
	// Decode indexes the output flat; the bounds-checked accessor is the
	// oracle for the arg-max, and the token slice is all it may allocate.
	for s, tok := range ao.Tokens {
		for v := 0; v < ao.Raw.Dim(1); v++ {
			if ao.Raw.At(s, v) > ao.Raw.At(s, tok) || ao.Raw.At(s, v) == ao.Raw.At(s, tok) && v < tok {
				t.Fatalf("position %d decoded token %d, but token %d scores %v >= %v", s, tok, v, ao.Raw.At(s, v), ao.Raw.At(s, tok))
			}
		}
	}
	if got := testing.AllocsPerRun(20, func() { w.Decode(ao.Raw) }); got > 1 {
		t.Errorf("BLEU Decode: %v allocs, want the token slice only", got)
	}
}

func TestMetricKindString(t *testing.T) {
	for _, m := range []MetricKind{MetricTop1, MetricBLEU, MetricDetection, MetricKind(9)} {
		if m.String() == "" {
			t.Error("empty metric name")
		}
	}
}

// The bounded variant must match the plain ResNet exactly on fault-free
// inputs whose activations stay inside the bound (same weights, same seed),
// and it must clip injected out-of-range values.
func TestBoundedResNet(t *testing.T) {
	plain, err := Build("resnet", numerics.FP16, 42)
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := Build("resnet-bounded", numerics.FP16, 42)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := dataset.Sample(dataset.Cifar10Like, 0)
	po := plain.Net.Forward(x)
	bo := bounded.Net.Forward(x)
	if plain.Decode(po).Label != bounded.Decode(bo).Label {
		t.Error("bounding must not change the fault-free prediction")
	}
	if p, b := len(nn.Sites(plain.Net.Root)), len(nn.Sites(bounded.Net.Root)); p != b {
		t.Errorf("site counts differ: %d vs %d", p, b)
	}
}
