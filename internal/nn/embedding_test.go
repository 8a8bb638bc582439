package nn

import (
	"math/rand"
	"testing"

	"fidelity/internal/tensor"
)

func TestEmbeddingLookup(t *testing.T) {
	e := NewEmbedding("emb", 4, 3)
	for v := 0; v < 4; v++ {
		for d := 0; d < 3; d++ {
			e.Table.Set(float32(v*10+d), v, d)
		}
	}
	x := tensor.FromSlice([]float32{2, 0, 3}, 3, 1)
	y := e.Forward(x, nil)
	if y.Dim(0) != 3 || y.Dim(1) != 3 {
		t.Fatalf("shape = %v", y.Shape())
	}
	if y.At(0, 1) != 21 || y.At(1, 0) != 0 || y.At(2, 2) != 32 {
		t.Errorf("lookup values wrong: %v", y.Data())
	}
}

func TestEmbeddingClampsTokens(t *testing.T) {
	e := NewEmbedding("emb", 4, 2)
	e.Table.Fill(1)
	e.Table.Set(7, 3, 0)
	e.Table.Set(9, 0, 0)
	x := tensor.FromSlice([]float32{99, -5}, 2, 1)
	y := e.Forward(x, nil)
	if y.At(0, 0) != 7 {
		t.Errorf("over-vocab token should clamp to last row, got %v", y.At(0, 0))
	}
	if y.At(1, 0) != 9 {
		t.Errorf("negative token should clamp to row 0, got %v", y.At(1, 0))
	}
}

func TestEmbeddingValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero vocab should panic")
		}
	}()
	NewEmbedding("emb", 0, 2)
}

func TestEmbeddingRejectsWrongRank(t *testing.T) {
	e := NewEmbedding("emb", 4, 2)
	defer func() {
		if recover() == nil {
			t.Error("non (seq,1) input should panic")
		}
	}()
	e.Forward(tensor.New(3, 2), nil)
}

func TestEmbeddingInitRandom(t *testing.T) {
	e := NewEmbedding("emb", 8, 4).InitRandom(rand.New(rand.NewSource(1)), 0.5)
	if e.Table.MaxAbs() == 0 {
		t.Error("table not initialized")
	}
	if e.Name() != "emb" {
		t.Error("name")
	}
}

func TestZeroPadLayer(t *testing.T) {
	p := NewZeroPad("pad", 2)
	x := tensor.New(1, 3, 3, 2)
	x.Fill(5)
	y := p.Forward(x, nil)
	if y.Dim(1) != 7 || y.Dim(2) != 7 {
		t.Fatalf("shape = %v", y.Shape())
	}
	if y.At(0, 0, 0, 0) != 0 || y.At(0, 3, 3, 1) != 5 {
		t.Error("padding content wrong")
	}
	if p.Name() != "pad" {
		t.Error("name")
	}
}

// A Sequential network containing every composite must enumerate its sites
// through arbitrary nesting.
func TestDeepSiteEnumeration(t *testing.T) {
	c := fp32Codec()
	rng := rand.New(rand.NewSource(2))
	inner := NewConv2D("inner", 1, 1, 2, 2, 1, 0, c).InitRandom(rng, 1)
	res := NewResidual("res", NewSequential("body", inner), nil, c)
	br := NewBranches("br", 3, res, NewConv2D("side", 1, 1, 2, 2, 1, 0, c))
	top := NewSequential("top", br, NewDense("head", 16, 4, c))
	sites := Sites(top)
	if len(sites) != 3 {
		t.Fatalf("sites = %d, want 3", len(sites))
	}
	names := map[string]bool{}
	for _, s := range sites {
		names[s.Name()] = true
	}
	for _, want := range []string{"inner", "side", "head"} {
		if !names[want] {
			t.Errorf("missing site %s", want)
		}
	}
}
