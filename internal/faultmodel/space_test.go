package faultmodel

import (
	"flag"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"fidelity/internal/nn"
	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite DESIGN.md's fault-space table from the walks")

// enumerator is the chooser that takes every branch. Walking a model over it
// again and again visits each path of draws once, in odometer order: a draw
// over n values contributes 1/n to the path's probability, a used element
// 1/(elements used), and a datapath word 2^-bits at up to 8 bits (a wider
// word is one branch, its value left open).
type enumerator struct {
	t           *testing.T // fails the walk on a draw over an empty range
	path, width []int      // the branch taken at each draw, and how many it had
	depth       int        // draws made by the walk in progress
	prob        float64    // the walk's probability so far
	draws       []string
	openWord    bool
}

// start begins a walk on the current path.
func (e *enumerator) start(prob float64) {
	e.depth, e.prob, e.draws, e.openWord = 0, prob, e.draws[:0], false
}

// take is one draw over n branches.
func (e *enumerator) take(what string, n int) int {
	if n < 1 {
		e.t.Fatalf("draw %q over an empty range", what)
	}
	if e.depth == len(e.path) {
		e.path, e.width = append(e.path, 0), append(e.width, n)
	}
	i := e.path[e.depth]
	e.depth++
	e.draws = append(e.draws, what)
	return i
}

// next moves to the next path; false once every path was walked.
func (e *enumerator) next() bool {
	e.path, e.width = e.path[:e.depth], e.width[:e.depth]
	for k := len(e.path) - 1; k >= 0; k-- {
		if e.path[k]++; e.path[k] < e.width[k] {
			e.path, e.width = e.path[:k+1], e.width[:k+1]
			return true
		}
	}
	return false
}

func (e *enumerator) index(what string, n int) int {
	e.prob /= float64(n)
	return e.take(what, n)
}

func (e *enumerator) used(site nn.Site, op *nn.Operands, kind nn.OperandKind, size int, users []int) (int, []int, error) {
	var used []int
	for flat := range size {
		if len(site.NeuronsUsingOperand(op, kind, flat, users[:0])) > 0 {
			used = append(used, flat)
		}
	}
	e.prob /= float64(len(used))
	flat := used[e.take("used operand element, uniform", len(used))]
	return flat, site.NeuronsUsingOperand(op, kind, flat, users[:0]), nil
}

func (e *enumerator) word(bits int) uint32 {
	if bits > 8 {
		e.openWord = true
		e.take("datapath word, uniform", 1)
		return 0
	}
	e.prob /= float64(uint32(1) << bits)
	return uint32(e.take("datapath word, uniform", 1<<bits))
}

// execution is one layer execution of a fault space, with its work.
type execution struct {
	site nn.Site
	op   *nn.Operands
	work float64
}

// branch is one outcome of a fault space: the execution struck and the plan.
type branch struct {
	exec int
	plan *Plan
	prob float64
	open bool // the plan's local-control word is left open
}

// key names a branch's outcome; branches with one outcome merge under it.
func (b branch) key() string {
	p := b.plan
	k := strconv.AppendInt(nil, int64(b.exec), 10)
	if p.Override != nil {
		k = strconv.AppendInt(append(k, " ov"...), int64(p.Override.Kind), 10)
		k = strconv.AppendInt(append(k, ':'), int64(p.Override.Flat), 10)
	}
	k = strconv.AppendInt(append(k, " bit"...), int64(p.Bit), 10)
	if !b.open {
		k = strconv.AppendUint(append(k, " word"...), uint64(math.Float32bits(p.RandomValue)), 16)
	}
	k = strconv.AppendBool(append(k, ' '), p.GlobalFailure)
	for _, n := range p.Neurons {
		k = strconv.AppendInt(append(k, ','), int64(n), 10)
	}
	return string(k)
}

// space enumerates model id's fault space over execs: every branch, with its
// probability. The execution is drawn ∝ work (Injector.Run's first draw; a
// global-control experiment strikes none), then the model walks.
func space(t *testing.T, id ID, execs []execution, rf int) []branch {
	t.Helper()
	var total float64
	for _, x := range execs {
		total += x.work
	}
	var out []branch
	for i, x := range execs {
		prob := x.work / total
		if id == GlobalControl {
			if i > 0 {
				break
			}
			prob = 1
		}
		e := &enumerator{t: t}
		for {
			e.start(prob)
			p := new(Plan)
			p.Model = id
			if err := walk(e, p, id, x.site, x.op, rf); err != nil {
				t.Fatal(err)
			}
			out = append(out, branch{exec: i, plan: p, prob: e.prob, open: e.openWord})
			if !e.next() {
				break
			}
		}
	}
	return out
}

// faultSpaceExecs is the fault space the tests walk: one small conv, FC and
// MatMul layer. The conv is FP16 (a local-control word left open) and its
// stride leaves a row and a column of its input unread; FC and MatMul are
// INT8. With RF = 2 every layer has more users than a window holds, and FC
// and MatMul users end in a short window.
func faultSpaceExecs(t *testing.T) []execution {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	fp16, int8 := numerics.MustCodec(numerics.FP16, 0), numerics.MustCodec(numerics.INT8, 8)
	conv := nn.NewConv2D("conv", 2, 2, 2, 4, 2, 0, fp16).InitRandom(rng, 0.3)
	x := tensor.New(1, 5, 5, 2)
	fc := nn.NewDense("fc", 3, 5, int8).InitRandom(rng, 0.3)
	xf := tensor.New(3, 3)
	mm := nn.NewMatMulSite("mm", false, 0, int8)
	a, b := tensor.New(2, 3), tensor.New(3, 3)
	return []execution{
		{conv, &nn.Operands{In: x, W: conv.W, B: conv.B, Out: conv.Forward(x, nil)}, 3},
		{fc, &nn.Operands{In: xf, W: fc.W, B: fc.B, Out: fc.Forward(xf, nil)}, 2},
		{mm, &nn.Operands{In: a, W: b, Out: mm.Run(a, b, nil)}, 1},
	}
}

// faultSpaceSampler samples with the NVDLA model set, both CBUF→MAC models
// at the given RF.
func faultSpaceSampler(t *testing.T, rf int, seed int64) *Sampler {
	t.Helper()
	models := deriveNVDLA(t)
	for i := range models {
		if models[i].ID == CBUFMACInput || models[i].ID == CBUFMACWeight {
			models[i].RF = rf
		}
	}
	s, err := NewSampler(models, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tableII is the probability of b's outcome at execution x under model id's
// Table II row, given that x is struck, or fails t when the outcome is not
// one the row allows.
func tableII(t *testing.T, id ID, x execution, b branch, rf int) float64 {
	p, codec := b.plan, x.site.Codec()
	bits := float64(codec.Bits())
	outs := float64(x.op.Out.Size())
	switch id {
	case GlobalControl:
		if !p.GlobalFailure {
			t.Fatalf("global control without a system failure")
		}
		return 1
	case OutputPSum, LocalControl:
		if len(p.Neurons) != 1 {
			t.Fatalf("%v: RF = 1 strikes %d neurons", id, len(p.Neurons))
		}
		if id == OutputPSum {
			return 1 / (outs * bits)
		}
		if b.open {
			return 1 / outs
		}
		return 1 / (outs * math.Exp2(bits))
	}
	ov := p.Override
	size := x.op.In.Size()
	if ov.Kind == nn.OperandWeight {
		size = x.op.W.Size()
	}
	users := x.site.NeuronsUsingOperand(x.op, ov.Kind, ov.Flat, nil)
	if id == BeforeCBUFInput || id == BeforeCBUFWeight {
		if !slices.Equal(p.Neurons, users) {
			t.Fatalf("%v: neurons %v are not the users %v", id, p.Neurons, users)
		}
		return 1 / (float64(size) * bits)
	}
	used := 0
	for flat := range size {
		if len(x.site.NeuronsUsingOperand(x.op, ov.Kind, flat, nil)) > 0 {
			used++
		}
	}
	element := 1 / (float64(used) * bits)
	n := p.Neurons
	if len(n) == 0 {
		t.Fatalf("%v: a used element that reaches no neuron", id)
	}
	if id == CBUFMACInput && x.site.Kind() == nn.KindConv {
		// An aligned block of RF channels at one pixel, drawn ∝ the users in it.
		cdim := x.op.Out.Dim(x.op.Out.Rank() - 1)
		pixel, c0 := n[0]-n[0]%cdim, n[0]%cdim
		hits := 0
		for _, u := range users {
			if u-u%cdim == pixel && u%cdim/rf*rf == c0 {
				hits++
			}
		}
		if c0%rf != 0 || len(n) != min(rf, cdim-c0) || n[len(n)-1] != pixel+c0+len(n)-1 || hits == 0 {
			t.Fatalf("%v: neurons %v are not an aligned RF-channel block of a user in %v", id, n, users)
		}
		return element * float64(hits) / float64(len(users))
	}
	// RF consecutive users in an aligned window, drawn ∝ its users; a weight
	// keeps a uniform suffix of it.
	i := slices.Index(users, n[0])
	start := i / rf * rf
	window := min(start+rf, len(users)) - start
	if i < 0 || id == CBUFMACInput && i != start || i+len(n) != start+window || !slices.Equal(users[i:start+window], n) {
		t.Fatalf("%v: neurons %v are not a suffix of an aligned window of the users %v", id, n, users)
	}
	if id == CBUFMACWeight {
		return element * float64(window) / float64(len(users)) / float64(window)
	}
	return element * float64(window) / float64(len(users))
}

// The sampler draws what the walks define, and the walks define Table II.
// On the fault space above, each model's enumerated outcomes have the
// probabilities of the row's closed form, summing to one; and a seeded run
// of the stream's experiments (the execution by Weighted, then PlanInto)
// lands on each outcome as often as that probability says: Pearson's χ² over
// the outcomes, those expected fewer than five times pooled, stays under its
// 1e-6 upper quantile.
func TestPlanMatchesFaultSpace(t *testing.T) {
	const rf = 2
	execs := faultSpaceExecs(t)
	work := make([]float64, len(execs))
	var total float64
	for i, x := range execs {
		work[i] = x.work
		total += x.work
	}
	s := faultSpaceSampler(t, rf, 52)
	var p Plan
	for _, id := range AllIDs() {
		bins := map[string]int{}
		var want []float64
		var first []branch
		for _, b := range space(t, id, execs, rf) {
			k := b.key()
			if _, ok := bins[k]; !ok {
				bins[k] = len(want)
				want, first = append(want, 0), append(first, b)
			}
			want[bins[k]] += b.prob
		}
		var sum float64
		for bin, b := range first {
			x := execs[b.exec]
			struck := x.work / total
			if id == GlobalControl {
				struck = 1
			}
			if row := struck * tableII(t, id, x, b, rf); math.Abs(want[bin]-row) > 1e-12 {
				t.Fatalf("%v: outcome %s has probability %g, Table II says %g", id, b.key(), want[bin], row)
			}
			sum += want[bin]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%v: outcome probabilities sum to %g", id, sum)
		}

		n := max(20000, 12*len(want))
		got := make([]int, len(want))
		for range n {
			i := 0
			if id != GlobalControl {
				i = Weighted(s.Rand(), work, total)
			}
			x := execs[i]
			if err := s.PlanInto(&p, id, x.site, 0, x.op); err != nil {
				t.Fatal(err)
			}
			open := id == LocalControl && x.site.Codec().Bits() > 8
			k := branch{exec: i, plan: &p, open: open}.key()
			bin, ok := bins[k]
			if !ok {
				t.Fatalf("%v: sampled outcome %s is not in the fault space", id, k)
			}
			got[bin]++
		}
		chi2, df := pearson(got, want, n)
		if limit := chi2Quantile(df, 4.753); chi2 > limit {
			t.Errorf("%v: χ² = %.1f over %d degrees of freedom, above %.1f", id, chi2, df, limit)
		}
	}
}

// PlanAt inverts PlanInto: the plan located at a sampled plan's struck
// element, first neuron and bit is that plan, its local-control word aside
// (a value has no location). A location no walk reaches fails.
func TestPlanAtLocatesSampledPlans(t *testing.T) {
	execs := faultSpaceExecs(t)
	s := faultSpaceSampler(t, 2, 56)
	var p, at Plan
	for _, id := range AllIDs() {
		for i := range 300 {
			x := execs[i%len(execs)]
			if err := s.PlanInto(&p, id, x.site, 0, x.op); err != nil {
				t.Fatal(err)
			}
			loc := Located{Flat: -1, Neuron: -1, Bit: p.Bit}
			if p.Override != nil {
				loc.Flat = p.Override.Flat
			}
			if len(p.Neurons) > 0 {
				loc.Neuron = p.Neurons[0]
			}
			if err := s.PlanAt(&at, id, x.site, x.op, loc); err != nil {
				t.Fatalf("%v at %+v: %v", id, loc, err)
			}
			open := id == LocalControl
			if got, want := (branch{plan: &at, open: open}).key(), (branch{plan: &p, open: open}).key(); got != want {
				t.Fatalf("%v at %+v: located plan %s, sampled %s", id, loc, got, want)
			}
		}
	}
	conv := execs[0]
	for _, tc := range []struct {
		id ID
		at Located
	}{
		{CBUFMACWeight, Located{Flat: -1, Neuron: 0}},             // a weight is never padding
		{CBUFMACWeight, Located{Flat: 0, Neuron: 1}},              // neuron 1 is another channel's
		{CBUFMACInput, Located{Flat: 0, Neuron: 0, Bit: 16}},      // FP16 has 16 bits
		{OutputPSum, Located{Neuron: conv.op.Out.Size(), Bit: 0}}, // past the output
	} {
		if err := s.PlanAt(&at, tc.id, conv.site, conv.op, tc.at); err == nil {
			t.Errorf("%v at %+v: no error", tc.id, tc.at)
		}
	}
}

// pearson is Pearson's χ² of counts against probabilities over n draws, with
// the bins expected fewer than five times pooled into one.
func pearson(got []int, want []float64, n int) (chi2 float64, df int) {
	var poolGot, poolWant float64
	bins := 0
	add := func(o, e float64) {
		chi2 += (o - e) * (o - e) / e
		bins++
	}
	for i, p := range want {
		if e := p * float64(n); e >= 5 {
			add(float64(got[i]), e)
		} else {
			poolGot += float64(got[i])
			poolWant += e
		}
	}
	if poolWant > 0 {
		add(poolGot, poolWant)
	}
	return chi2, max(bins-1, 1)
}

// chi2Quantile is the Wilson–Hilferty approximation of the χ² quantile with
// df degrees of freedom at the standard normal quantile z.
func chi2Quantile(df int, z float64) float64 {
	k := float64(df)
	h := 2 / (9 * k)
	return k * math.Pow(1-h+z*math.Sqrt(h), 3)
}

// DESIGN.md's fault-space table is the walks' draws, rendered: each model's
// draws in stream order on the conv, FC and MatMul layers above, with the
// layer kinds named where they differ. go test ./internal/faultmodel -run
// TestFaultSpaceTable -update rewrites it.
func TestFaultSpaceTable(t *testing.T) {
	execs := faultSpaceExecs(t)
	kinds := []string{"conv", "FC", "MatMul"}
	var b strings.Builder
	b.WriteString("| model | draws, in stream order |\n|---|---|\n")
	for _, id := range AllIDs() {
		var seqs [][]string
		for _, x := range execs {
			e := &enumerator{t: t}
			e.start(1)
			if err := walk(e, new(Plan), id, x.site, x.op, 2); err != nil {
				t.Fatal(err)
			}
			seq := []string{"execution ∝ work"}
			if id == GlobalControl {
				seq = []string{"none: a system failure"}
			}
			seqs = append(seqs, append(seq, e.draws...))
		}
		b.WriteString("| `" + id.String() + "` | " + renderDraws(seqs, kinds) + " |\n")
	}
	const begin, end = "<!-- fault-space:begin -->\n", "<!-- fault-space:end -->"
	path := "../../DESIGN.md"
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i, j := strings.Index(string(doc), begin), strings.Index(string(doc), end)
	if i < 0 || j < i {
		t.Fatalf("%s has no %q … %q block", path, begin, end)
	}
	if have := string(doc[i+len(begin) : j]); have != b.String() {
		if !*update {
			t.Fatalf("DESIGN.md's fault-space table is stale (go test ./internal/faultmodel -run TestFaultSpaceTable -update); want:\n%s", b.String())
		}
		doc = slices.Concat(doc[:i+len(begin)], []byte(b.String()), doc[j:])
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// renderDraws joins each layer's draws with arrows: the shared prefix once,
// then each distinct tail after the kinds of the layers that draw it.
func renderDraws(seqs [][]string, kinds []string) string {
	prefix := 0
	for prefix < len(seqs[0]) && allShare(seqs, prefix) {
		prefix++
	}
	s := strings.Join(seqs[0][:prefix], " → ")
	var tails []string
	byTail := map[string][]string{}
	for i, seq := range seqs {
		tail := strings.Join(seq[prefix:], " → ")
		if _, ok := byTail[tail]; !ok {
			tails = append(tails, tail)
		}
		byTail[tail] = append(byTail[tail], kinds[i])
	}
	if len(tails) == 1 {
		return s
	}
	for i, tail := range tails {
		sep := "; "
		if i == 0 {
			sep = " → "
		}
		s += sep + strings.Join(byTail[tail], ", ") + ": " + tail
	}
	return s
}

// allShare reports whether every sequence has the first one's i-th draw.
func allShare(seqs [][]string, i int) bool {
	for _, seq := range seqs {
		if i >= len(seq) || seq[i] != seqs[0][i] {
			return false
		}
	}
	return true
}
