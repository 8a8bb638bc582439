package nn

import (
	"fmt"
	"math/rand"

	"fidelity/internal/tensor"
)

// Embedding maps a (seq, 1) tensor of token IDs to (seq, dim) vectors by
// table lookup. It is not an injection site: in NVDLA-class accelerators
// embedding lookups execute as memory gathers, not MAC-pipeline work.
type Embedding struct {
	name  string
	Vocab int
	Dim   int
	Table *tensor.Tensor // (Vocab, Dim)
}

// NewEmbedding builds a zero-initialized embedding table.
func NewEmbedding(name string, vocab, dim int) *Embedding {
	if vocab <= 0 || dim <= 0 {
		panic(fmt.Sprintf("nn: invalid embedding %dx%d", vocab, dim))
	}
	return &Embedding{name: name, Vocab: vocab, Dim: dim, Table: tensor.New(vocab, dim)}
}

// InitRandom fills the table with N(0, stddev²).
func (l *Embedding) InitRandom(rng *rand.Rand, stddev float32) *Embedding {
	l.Table.RandNormal(rng, stddev)
	return l
}

// Name implements Layer.
func (l *Embedding) Name() string { return l.name }

// Forward implements Layer. Token IDs are clamped into the vocabulary.
func (l *Embedding) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != 1 {
		panic(fmt.Sprintf("nn: %s expects (seq,1) token IDs, got %v", l.name, x.Shape()))
	}
	seq := x.Dim(0)
	return ctx.exec(l, func() *tensor.Tensor {
		out := ctx.newTensor(seq, l.Dim)
		od, table := out.Data(), l.Table.Data()
		for s, id := range x.Data() {
			tok := int(id)
			if tok < 0 {
				tok = 0
			}
			if tok >= l.Vocab {
				tok = l.Vocab - 1
			}
			copy(od[s*l.Dim:(s+1)*l.Dim], table[tok*l.Dim:(tok+1)*l.Dim])
		}
		return out
	}, nil, x)
}
