package nn

import (
	"math"
	"math/rand"
	"testing"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

func TestDenseKnownValues(t *testing.T) {
	l := NewDense("d", 2, 3, fp32Codec())
	// W = [[1,2,3],[4,5,6]], B = [0.5, 0, -0.5], x = [1, 1]
	for i, v := range []float32{1, 2, 3, 4, 5, 6} {
		l.W.Data()[i] = v
	}
	l.B.Data()[0], l.B.Data()[2] = 0.5, -0.5
	x := tensor.FromSlice([]float32{1, 1}, 1, 2)
	y := l.Forward(x, nil)
	want := []float32{5.5, 7, 8.5}
	for i, w := range want {
		if y.At(0, i) != w {
			t.Errorf("dense[%d] = %v, want %v", i, y.At(0, i), w)
		}
	}
}

func TestDenseFlattensHighRankInput(t *testing.T) {
	l := NewDense("d", 8, 2, fp32Codec())
	rng := rand.New(rand.NewSource(1))
	l.InitRandom(rng, 1)
	x := tensor.New(2, 2, 2, 2) // batch 2, 8 features
	x.RandNormal(rng, 1)
	y := l.Forward(x, nil)
	if y.Dim(0) != 2 || y.Dim(1) != 2 {
		t.Fatalf("shape = %v", y.Shape())
	}
}

func TestDenseMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewDense("d", 5, 4, fp32Codec()).InitRandom(rng, 1)
	l.B.Fill(0)
	x := tensor.New(3, 5)
	x.RandNormal(rng, 1)
	y := l.Forward(x, nil)
	ref := tensor.MatMul(x, l.W)
	if diffs := y.DiffIndices(ref, 1e-4); len(diffs) != 0 {
		t.Fatalf("dense disagrees with matmul at %d positions", len(diffs))
	}
}

func TestDenseComputeNeuronOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewDense("d", 6, 5, fp32Codec()).InitRandom(rng, 1)
	x := tensor.New(2, 6)
	x.RandNormal(rng, 1)
	op := &Operands{In: x, W: l.W, B: l.B, Out: tensor.New(2, 5)}

	// Weight override: Table II says neuron o in every batch is affected.
	flat := l.W.Offset(3, 2)
	ov := &Override{Kind: OperandWeight, Flat: flat, Value: -7}
	w2 := l.W.Clone()
	w2.Data()[flat] = -7
	l2 := NewDense("d", 6, 5, fp32Codec())
	l2.W, l2.B = w2, l.B
	ref := l2.Forward(x, nil)

	affected := l.NeuronsUsingOperand(op, OperandWeight, flat, nil)
	if len(affected) != 2 { // one per batch
		t.Fatalf("weight reuse set = %d, want 2", len(affected))
	}
	for _, off := range affected {
		if off%5 != 2 {
			t.Fatalf("weight W[3,2] should affect output neuron 2, got offset %d", off)
		}
		got := l.ComputeNeuron(op, off, ov)
		if math.Abs(float64(got-ref.Data()[off])) > 1e-4 {
			t.Fatalf("override mismatch at %d: %v vs %v", off, got, ref.Data()[off])
		}
	}

	// Input override: all output neurons of that batch are affected.
	inFlat := x.Offset(1, 4)
	inSet := l.NeuronsUsingOperand(op, OperandInput, inFlat, nil)
	if len(inSet) != 5 {
		t.Fatalf("input reuse set = %d, want 5", len(inSet))
	}
	for _, off := range inSet {
		if off/5 != 1 {
			t.Fatalf("input of batch 1 should only affect batch 1, got offset %d", off)
		}
	}

	// Bias override affects neuron `flat` in every batch.
	bSet := l.NeuronsUsingOperand(op, OperandBias, 3, nil)
	if len(bSet) != 2 || bSet[0] != 3 || bSet[1] != 8 {
		t.Fatalf("bias reuse set = %v", bSet)
	}

	// Output override is the neuron itself.
	oSet := l.NeuronsUsingOperand(op, OperandOutput, 7, nil)
	if len(oSet) != 1 || oSet[0] != 7 {
		t.Fatalf("output reuse set = %v", oSet)
	}
}

func TestDenseQuantizedPath(t *testing.T) {
	codec := numerics.MustCodec(numerics.INT8, 8)
	l := NewDense("d", 4, 2, codec)
	rng := rand.New(rand.NewSource(4))
	l.InitRandom(rng, 0.5)
	x := tensor.New(1, 4)
	x.RandNormal(rng, 1)
	y := l.Forward(x, nil)
	// Outputs must be representable in the codec.
	for _, v := range y.Data() {
		if codec.Round(v) != v {
			t.Errorf("quantized output %v is not representable", v)
		}
	}
}

func TestDenseValidation(t *testing.T) {
	l := NewDense("d", 4, 2, fp32Codec())
	defer func() {
		if recover() == nil {
			t.Error("wrong feature count should panic")
		}
	}()
	l.Forward(tensor.New(1, 5), nil)
}

func TestMatMulSiteKnown(t *testing.T) {
	m := NewMatMulSite("mm", false, 0, fp32Codec())
	a := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := tensor.FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	y := m.Run(a, b, nil)
	want := []float32{19, 22, 43, 50}
	for i, w := range want {
		if y.Data()[i] != w {
			t.Errorf("matmul[%d] = %v, want %v", i, y.Data()[i], w)
		}
	}
}

func TestMatMulSiteTransposeAndScale(t *testing.T) {
	m := NewMatMulSite("mm", true, 0.5, fp32Codec())
	a := tensor.FromSlice([]float32{1, 2}, 1, 2)
	b := tensor.FromSlice([]float32{3, 4, 5, 6}, 2, 2) // interpreted as (n=2, k=2)
	y := m.Run(a, b, nil)
	// Row 0 of b = [3,4]: dot = 11; row 1 = [5,6]: dot = 17. Scaled by 0.5.
	if y.At(0, 0) != 5.5 || y.At(0, 1) != 8.5 {
		t.Errorf("transposed matmul = %v", y.Data())
	}
}

func TestMatMulSiteReuseSets(t *testing.T) {
	m := NewMatMulSite("mm", false, 0, fp32Codec())
	a := tensor.New(3, 4)
	b := tensor.New(4, 5)
	out := tensor.New(3, 5)
	op := &Operands{In: a, W: b, Out: out}
	// A[1,2] affects the whole output row 1.
	set := m.NeuronsUsingOperand(op, OperandInput, a.Offset(1, 2), nil)
	if len(set) != 5 {
		t.Fatalf("input reuse = %d, want 5", len(set))
	}
	for _, off := range set {
		if off/5 != 1 {
			t.Fatalf("input reuse should stay in row 1: offset %d", off)
		}
	}
	// B[2,3] affects the whole output column 3.
	set = m.NeuronsUsingOperand(op, OperandWeight, b.Offset(2, 3), nil)
	if len(set) != 3 {
		t.Fatalf("weight reuse = %d, want 3", len(set))
	}
	for _, off := range set {
		if off%5 != 3 {
			t.Fatalf("weight reuse should stay in column 3: offset %d", off)
		}
	}
}

func TestMatMulSiteForwardPanics(t *testing.T) {
	m := NewMatMulSite("mm", false, 0, fp32Codec())
	defer func() {
		if recover() == nil {
			t.Error("Forward on MatMulSite should panic")
		}
	}()
	m.Forward(tensor.New(1, 1), nil)
}

func TestMatMulSiteOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMatMulSite("mm", false, 0, fp32Codec())
	a, b := tensor.New(3, 4), tensor.New(4, 3)
	a.RandNormal(rng, 1)
	b.RandNormal(rng, 1)
	out := m.Run(a, b, nil)
	op := &Operands{In: a, W: b, Out: out}
	flat := b.Offset(2, 1)
	b2 := b.Clone()
	b2.Data()[flat] = 9
	ref := m.Run(a, b2, nil)
	ov := &Override{Kind: OperandWeight, Flat: flat, Value: 9}
	for _, off := range m.NeuronsUsingOperand(op, OperandWeight, flat, nil) {
		got := m.ComputeNeuron(op, off, ov)
		if math.Abs(float64(got-ref.Data()[off])) > 1e-4 {
			t.Fatalf("override mismatch at %d", off)
		}
	}
}
