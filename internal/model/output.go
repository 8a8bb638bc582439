package model

import (
	"math"
	"slices"

	"fidelity/internal/metrics"
	"fidelity/internal/tensor"
)

// AppOutput is a decoded application-level output: the object the
// correctness metric compares, as opposed to the raw layer tensor.
type AppOutput struct {
	// Label is the Top-1 class (classification workloads).
	Label int
	// Tokens is the greedy decode (translation workloads).
	Tokens []int
	// Boxes is the decoded detection set (detection workloads).
	Boxes []metrics.Box
	// Raw is the network output tensor.
	Raw *tensor.Tensor
}

// Decode converts a raw network output into the workload's application
// output.
func (w *Workload) Decode(out *tensor.Tensor) AppOutput {
	var ao AppOutput
	w.DecodeInto(&ao, out)
	return ao
}

// DecodeInto is Decode into ao, reusing the storage of its Tokens and Boxes:
// decoding one output after another into the same ao allocates nothing once
// those have grown to size.
func (w *Workload) DecodeInto(ao *AppOutput, out *tensor.Tensor) {
	*ao = AppOutput{Tokens: ao.Tokens[:0], Boxes: ao.Boxes[:0], Raw: out}
	switch w.Metric {
	case MetricTop1:
		ao.Label = out.ArgMax()
	case MetricBLEU:
		seq, vocab := out.Dim(0), out.Dim(1)
		od := out.Data()
		ao.Tokens = slices.Grow(ao.Tokens, seq)[:seq]
		for s := range ao.Tokens {
			best, bestv := 0, float32(math.Inf(-1))
			for v, x := range od[s*vocab : (s+1)*vocab] {
				if x > bestv {
					best, bestv = v, x
				}
			}
			ao.Tokens[s] = best
		}
	case MetricDetection:
		ao.Boxes = w.decodeBoxes(ao.Boxes, out)
	}
}

// decodeBoxes interprets the Yolo head output (1, g, g, A·(5+C)): per cell
// and anchor, [objectness, cx, cy, w, h, class scores...]. Cells with
// sigmoid(objectness) above threshold emit a box, appended to boxes.
func (w *Workload) decodeBoxes(boxes []metrics.Box, out *tensor.Tensor) []metrics.Box {
	const objThreshold = 0.5
	g, a, c := w.Grid, w.Anchors, w.Classes
	// Flat NHWC indexing of batch image 0 (the variadic At allocates per call).
	od, width, depth := out.Data(), out.Dim(2), out.Dim(3)
	for gy := 0; gy < g; gy++ {
		for gx := 0; gx < g; gx++ {
			for an := 0; an < a; an++ {
				base := (gy*width+gx)*depth + an*(5+c)
				cell := od[base : base+5+c]
				obj := sigmoid(cell[0])
				if obj < objThreshold {
					continue
				}
				bx := (float64(gx) + sigmoid(cell[1])) / float64(g)
				by := (float64(gy) + sigmoid(cell[2])) / float64(g)
				bw := 0.05 + 0.5*sigmoid(cell[3])
				bh := 0.05 + 0.5*sigmoid(cell[4])
				best, bestv := 0, float32(math.Inf(-1))
				for cl, v := range cell[5:] {
					if v > bestv {
						best, bestv = cl, v
					}
				}
				boxes = append(boxes, metrics.Box{
					X: bx - bw/2, Y: by - bh/2, W: bw, H: bh,
					Class: best, Score: obj,
				})
			}
		}
	}
	return boxes
}

func sigmoid(v float32) float64 {
	return 1 / (1 + math.Exp(-float64(v)))
}

// Score computes the workload's quality score of a faulty output against the
// golden output: 1 for a perfect match under the metric. For Top-1 the score
// is 1 (match) or 0 (mismatch).
func (w *Workload) Score(golden, faulty AppOutput) float64 {
	switch w.Metric {
	case MetricTop1:
		if golden.Label == faulty.Label {
			return 1
		}
		return 0
	case MetricBLEU:
		return metrics.BLEU(golden.Tokens, faulty.Tokens)
	case MetricDetection:
		return metrics.DetectionF1(golden.Boxes, faulty.Boxes)
	default:
		return 0
	}
}

// Correct applies the Table IV correctness criterion: Top-1 requires an
// exact label match; BLEU/detection require the score within tol of the
// fault-free score.
func (w *Workload) Correct(golden, faulty AppOutput, tol float64) bool {
	return w.CorrectScore(w.Score(golden, faulty), tol)
}

// CorrectScore is Correct's criterion on a score Score already computed.
func (w *Workload) CorrectScore(score, tol float64) bool {
	if w.Metric == MetricTop1 {
		return score == 1
	}
	return metrics.WithinTolerance(score, tol)
}
