package numerics

// floatrow.go holds the plain-float32 row primitives: the loops of the replay
// path that no FP16 rounding runs through — the acc += a·w panel of the INT8,
// INT16 and FP32 kernels (their operands are rounded once, before the loop),
// the branch-free max-pool, ReLU and clip rows of every precision, and the
// scans that find where a replayed tensor departs from golden — each a Go loop
// and an AVX2 body in floatrow_amd64.s under the lane contract (DESIGN.md
// §7.1). Nothing here rounds, so only the diff scans bail: their lanes compare
// bit patterns, and elements compare otherwise on ±0 and NaN.

import "math"

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

// The diff scans below find where a replayed tensor departs from its golden
// copy. Elements compare as tensor elements: NaN equals NaN and +0 equals -0,
// so two bit patterns can differ while their elements do not. The lanes
// compare whole chunks as bit patterns and stop at the first (last) chunk with
// a mismatch; the Go loop settles that chunk element by element and the lanes
// resume behind it, as in halfRoundInto, so a false alarm costs one chunk of
// the Go loop and the scan goes on.

// FirstDiff returns the index of the first element at which a and b differ,
// or len(a) when none does. b must be at least as long as a.
func FirstDiff(a, b []float32) int {
	b = b[:len(a)]
	n := 0
	if hasAVX2 {
		n = firstDiffAVX2(a, b)
		for n+laneChunk <= len(a) {
			if i := firstDiffGo(a[n:n+laneChunk], b[n:n+laneChunk]); i < laneChunk {
				return n + i
			}
			n += laneChunk
			n += firstDiffAVX2(a[n:], b[n:])
		}
	}
	return n + firstDiffGo(a[n:], b[n:])
}

// LastDiff returns the index of the last element at which a and b differ, or
// -1 when none does: FirstDiff from the right. b must be at least as long as
// a.
func LastDiff(a, b []float32) int {
	b = b[:len(a)]
	if hasAVX2 {
		n := lastDiffAVX2(a, b)
		for n >= laneChunk {
			if i := lastDiffGo(a[n-laneChunk:n], b[n-laneChunk:n]); i >= 0 {
				return n - laneChunk + i
			}
			n = lastDiffAVX2(a[:n-laneChunk], b[:n-laneChunk])
		}
		a, b = a[:n], b[:n]
	}
	return lastDiffGo(a, b)
}

// neq reports whether a and b differ as tensor elements.
func neq(a, b float32) bool {
	return a != b && !(a != a && b != b)
}

// bitsDiffer4 reports whether any of the four leading elements of a and b
// differ as bit patterns. Equal bits are equal elements; differing bits still
// are for +0 against -0 and for NaNs of two payloads, which is neq's call to
// make.
func bitsDiffer4(a, b []float32) bool {
	return (math.Float32bits(a[0])^math.Float32bits(b[0]))|
		(math.Float32bits(a[1])^math.Float32bits(b[1]))|
		(math.Float32bits(a[2])^math.Float32bits(b[2]))|
		(math.Float32bits(a[3])^math.Float32bits(b[3])) != 0
}

// firstDiffGo is FirstDiff's Go loop. Equal runs are crossed four bit patterns
// at a time; a group with a bit mismatch is settled element by element. Both
// slices shrink from the front as the scan advances, which is what lets the
// compiler drop every bounds check of the two inner loops (`make bce`).
func firstDiffGo(a, b []float32) int {
	n := len(a)
	b = b[:n]
	for len(a) > 0 {
		for len(a) >= 4 && len(b) >= 4 {
			if bitsDiffer4(a, b) {
				break
			}
			a, b = a[4:], b[4:]
		}
		k := min(4, len(a))
		head, bhead := a[:k], b[:k]
		for j, v := range head {
			if neq(v, bhead[j]) {
				return n - len(a) + j
			}
		}
		a, b = a[k:], b[k:]
	}
	return n
}

// lastDiffGo is LastDiff's Go loop: firstDiffGo from the right, the slices
// shrinking from the back.
func lastDiffGo(a, b []float32) int {
	b = b[:len(a)]
	for len(a) > 0 {
		for len(a) >= 4 && len(b) >= 4 {
			if bitsDiffer4(a[len(a)-4:], b[len(b)-4:]) {
				break
			}
			a, b = a[:len(a)-4], b[:len(b)-4]
		}
		k := max(len(a)-4, 0)
		tail, btail := a[k:], b[k:]
		for j := len(tail) - 1; j >= 0 && j < len(btail); j-- {
			if neq(tail[j], btail[j]) {
				return k + j
			}
		}
		a, b = a[:k], b[:k]
	}
	return -1
}
