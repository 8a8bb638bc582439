package numerics

// floatrow.go holds the plain-float32 row primitives: the loops of the replay
// path that no FP16 rounding runs through — the acc += a·w panel of the INT8,
// INT16 and FP32 kernels (their operands are rounded once, before the loop),
// the branch-free max-pool, ReLU and clip rows of every precision, the add of
// a bias or a residual sum, and the scan that finds where a replayed tensor
// departs from golden — each a Go loop and an AVX2 body in floatrow_amd64.s
// under the lane contract (DESIGN.md §7.1). Nothing here rounds and nothing
// bails.

// panelBlock is the narrowest column block the AVX2 panel takes (one XMM of
// accumulators; it prefers 16, 12 and 8). Columns past the last whole block are
// the Go loop's.
const panelBlock = 4

// MulAddPanel computes, for the rows i of a in ascending order,
// acc[c] += a[i] * w[i*stride+c] for every c in acc: HalfMulAddPanel without
// the rounding, for operands that are already stored values of an INT8, INT16
// or FP32 datapath. Every row is computed, ±0 activations included: at the
// widths the kernels call it with, a branch that skips a row costs more than
// the row (DESIGN.md §7.1.4). Each accumulator takes its products in row order
// whoever adds them — the lanes hold a block of accumulators in registers
// across all rows, the Go loop walks row by row (§7.1.2). w must reach index
// (len(a)-1)*stride + len(acc) - 1.
func MulAddPanel(acc, a, w []float32, stride int) {
	if len(a) == 0 || len(acc) == 0 {
		return
	}
	_ = w[(len(a)-1)*stride+len(acc)-1]
	// A negative stride is the Go loop's to reject, on its slice expression.
	if whole := len(acc) &^ (panelBlock - 1); hasAVX2 && whole > 0 && stride >= 0 {
		mulAddPanelAVX2(acc[:whole], a, w, stride)
		if whole == len(acc) {
			return
		}
		acc, w = acc[whole:], w[whole:]
	}
	mulAddPanelGo(acc, a, w, stride)
}

func mulAddPanelGo(acc, a, w []float32, stride int) {
	for i, av := range a {
		wrow := w[i*stride:][:len(acc)]
		acc := acc[:len(wrow)]
		for c, wv := range wrow {
			acc[c] += av * wv
		}
	}
}

// laneWhole returns how many leading elements of a row of n the AVX2 bodies
// take: its whole chunks, or none where there are no lanes. The Go loop takes
// the rest.
func laneWhole(n int) int {
	if !hasAVX2 {
		return 0
	}
	return n &^ (laneChunk - 1)
}

// The rows below are plain compares, not the min and max builtins: those
// propagate NaN and order the zeros, and what a rectifier or a pooling window
// makes of NaN and of -0 is part of what a fault propagates. VMAXPS and VMINPS
// return their second source when either operand is NaN or both are zeros,
// which is each compare's else branch once the operands are in the order
// floatrow_amd64.s gives them (the table is in DESIGN.md §7.1.3).

// MaxRow stores v[i] in m[i] wherever v[i] > m[i], for every i in v: one
// window cell folded into a max-pooling output cell. A NaN in v never
// displaces the running maximum, and a NaN in m is never displaced. m must be
// at least as long as v.
func MaxRow(m, v []float32) {
	m = m[:len(v)]
	n := laneWhole(len(v))
	if n > 0 {
		maxRowAVX2(m[:n], v[:n])
	}
	maxRowGo(m[n:], v[n:])
}

func maxRowGo(m, v []float32) {
	m = m[:len(v)]
	for i, x := range v {
		if x > m[i] {
			m[i] = x
		}
	}
}

// ReLURow stores x[i] in out[i] where x[i] > 0 and +0 elsewhere — for NaN and
// -0 too — for every i in x. out must be at least as long as x and may be x
// itself.
func ReLURow(out, x []float32) {
	out = out[:len(x)]
	n := laneWhole(len(x))
	if n > 0 {
		reluRowAVX2(out[:n], x[:n])
	}
	reluRowGo(out[n:], x[n:])
}

func reluRowGo(out, x []float32) {
	out = out[:len(x)]
	for i, v := range x {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
}

// ClipRow stores x[i] bounded to [lo, hi] in out[i] for every i in x: lo where
// lo > x[i], else hi where hi < x[i], else x[i] itself — so NaN and -0 pass
// through. ReLU6 is ClipRow(out, x, 0, 6). out must be at least as long as x
// and may be x itself.
func ClipRow(out, x []float32, lo, hi float32) {
	out = out[:len(x)]
	n := laneWhole(len(x))
	if n > 0 {
		clipRowAVX2(out[:n], x[:n], lo, hi)
	}
	clipRowGo(out[n:], x[n:], lo, hi)
}

func clipRowGo(out, x []float32, lo, hi float32) {
	out = out[:len(x)]
	for i, v := range x {
		if lo > v {
			v = lo
		}
		if hi < v {
			v = hi
		}
		out[i] = v
	}
}

// AddRow stores a[i] + b[i] in out[i] for every i in a: a bias added to a
// row of accumulators, a residual sum. out and b must be at least as long as
// a; out may be a or b.
func AddRow(out, a, b []float32) {
	out, b = out[:len(a)], b[:len(a)]
	n := laneWhole(len(a))
	if n > 0 {
		addRowAVX2(out[:n], a[:n], b[:n])
	}
	addRowGo(out[n:], a[n:], b[n:])
}

func addRowGo(out, a, b []float32) {
	out, b = out[:len(a)], b[:len(a)]
	for i, v := range a {
		out[i] = v + b[i]
	}
}

// DiffEnds returns the first and the last index at which a and b differ as
// tensor elements, or len(a) and -1 when none does: NaN equals NaN and +0
// equals -0, so two bit patterns can differ while their elements do not. The
// lanes cross equal runs as bit patterns and settle a chunk whose bits differ
// as elements in the lanes themselves, so one call finds both ends of a row of
// eight or more; a shorter row is the Go loop's. b must be at least as long as
// a.
func DiffEnds(a, b []float32) (first, last int) {
	b = b[:len(a)]
	if hasAVX2 && len(a) >= laneChunk {
		return diffEndsAVX2(a, b)
	}
	return diffEndsGo(a, b)
}

// diffEndsGo is DiffEnds' Go loop: from the front to the first difference,
// then from the back down to it. The slices are cut to the same length before
// each loop, which is what lets the compiler drop their bounds checks (`make
// bce`).
func diffEndsGo(a, b []float32) (first, last int) {
	b = b[:len(a)]
	first = len(a)
	for i, v := range a {
		if w := b[i]; v != w && (v == v || w == w) {
			first = i
			break
		}
	}
	if first == len(a) {
		return first, -1
	}
	a, b = a[first:], b[first:]
	b = b[:len(a)]
	for last = len(a) - 1; last > 0; last-- {
		if v, w := a[last], b[last]; v != w && (v == v || w == w) {
			break
		}
	}
	return first, first + last
}
