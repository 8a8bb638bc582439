// Package metrics implements the scored application correctness metrics of
// paper Table IV: BLEU-score difference for translation and
// detection-precision difference for object detection (Top-1 is a label
// comparison, done where outputs are decoded: model.Workload.Score).
// Every metric compares a faulty application output against the fault-free
// output of the same run, exactly as the paper's methodology does.
package metrics

import (
	"math"
	"slices"
)

// BLEU computes a sentence-level BLEU score of hyp against ref: geometric
// mean of modified n-gram precisions up to 4-grams with add-one smoothing
// and a brevity penalty. Identical sequences score 1.
func BLEU(ref, hyp []int) float64 {
	if len(hyp) == 0 {
		if len(ref) == 0 {
			return 1
		}
		return 0
	}
	if slices.Equal(ref, hyp) {
		return 1 // what the sums below come to, and what most experiments are
	}
	logSum := 0.0
	for _, m := range ngramOverlap(ref, hyp) {
		// Add-one smoothing keeps short sentences meaningful.
		p := (float64(m.match) + 1) / (float64(m.total) + 1)
		logSum += math.Log(p)
	}
	bleu := math.Exp(logSum / 4)
	if len(hyp) < len(ref) {
		bleu *= math.Exp(1 - float64(len(ref))/float64(len(hyp)))
	}
	return bleu
}

// stackLen bounds the tokens of a sentence pair, and the boxes of a golden
// detection set, whose scratch the metrics keep on the stack.
const stackLen = 64

// overlap is hyp's n-gram count for one n, and how many of them ref matches.
type overlap struct{ match, total int }

// ngramOverlap counts the clipped n-gram matches of hyp against ref for n = 1
// to 4. Every n-gram is named by a dense integer id — equal ids, equal
// n-grams, whatever the token values — built one order from the last: the id
// of the (n-1)-gram at a position packed with the id of the token behind it,
// ranked again. Ids stay below the two lengths' sum, so the packing is exact
// and the counts live in a slice indexed by id, reused from order to order.
// Both buffers live on the stack while the two sentences hold at most
// stackLen tokens together, so scoring them allocates nothing.
func ngramOverlap(ref, hyp []int) (out [4]overlap) {
	size := len(ref) + len(hyp)
	var bufStack [4 * stackLen]uint64
	var countStack [stackLen]int
	buf, count := bufStack[:], countStack[:]
	if size > stackLen {
		buf, count = make([]uint64, 4*size), make([]int, size)
	}
	tok, gram, keys, sorted := buf[:size], buf[size:2*size], buf[2*size:3*size], buf[3*size:4*size]
	count = count[:size]
	// rank replaces keys by their dense ranks.
	rank := func(keys []uint64) {
		uniq := sorted[:copy(sorted, keys)]
		slices.Sort(uniq)
		uniq = slices.Compact(uniq)
		for i, k := range keys {
			r, _ := slices.BinarySearch(uniq, k)
			keys[i] = uint64(r)
		}
	}
	for i, t := range ref {
		tok[i] = uint64(t)
	}
	for i, t := range hyp {
		tok[len(ref)+i] = uint64(t)
	}
	rank(tok)
	copy(gram, tok)
	for n := 1; n <= 4 && n <= len(hyp); n++ {
		// The n-grams start at the first nr tokens of ref and nh of hyp.
		nr, nh := max(len(ref)-n+1, 0), len(hyp)-n+1
		refGrams, hypGrams := gram[:nr], gram[len(ref):len(ref)+nh]
		if n > 1 {
			for i := range refGrams {
				refGrams[i] = refGrams[i]<<32 | tok[i+n-1]
			}
			for i := range hypGrams {
				hypGrams[i] = hypGrams[i]<<32 | tok[len(ref)+i+n-1]
			}
			ids := keys[:nr+nh]
			copy(ids, refGrams)
			copy(ids[nr:], hypGrams)
			rank(ids)
			copy(refGrams, ids)
			copy(hypGrams, ids[nr:])
		}
		clear(count)
		for _, g := range refGrams {
			count[g]++
		}
		// Clipping: each n-gram of ref matches one of hyp at most.
		for _, g := range hypGrams {
			if count[g] > 0 {
				count[g]--
				out[n-1].match++
			}
		}
		out[n-1].total = nh
	}
	return out
}

// Box is an axis-aligned detection with a class label.
type Box struct {
	X, Y, W, H float64
	Class      int
	Score      float64
}

// IoU computes intersection over union of two boxes.
func IoU(a, b Box) float64 {
	x1 := math.Max(a.X, b.X)
	y1 := math.Max(a.Y, b.Y)
	x2 := math.Min(a.X+a.W, b.X+b.W)
	y2 := math.Min(a.Y+a.H, b.Y+b.H)
	if x2 <= x1 || y2 <= y1 {
		return 0
	}
	inter := (x2 - x1) * (y2 - y1)
	union := a.W*a.H + b.W*b.H - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// DetectionF1 scores a faulty detection set against the golden set: greedy
// one-to-one matching at IoU >= 0.5 with class agreement, returning the F1
// of matched boxes. Identical sets score 1; an empty golden and faulty pair
// scores 1.
func DetectionF1(golden, faulty []Box) float64 {
	if len(golden) == 0 && len(faulty) == 0 {
		return 1
	}
	if len(golden) == 0 || len(faulty) == 0 {
		return 0
	}
	var usedStack [stackLen]bool
	used := usedStack[:]
	if len(golden) > len(used) {
		used = make([]bool, len(golden))
	}
	matched := 0
	for _, f := range faulty {
		best, bestIoU := -1, 0.5
		for i, g := range golden {
			if used[i] || g.Class != f.Class {
				continue
			}
			if iou := IoU(g, f); iou >= bestIoU {
				best, bestIoU = i, iou
			}
		}
		if best >= 0 {
			used[best] = true
			matched++
		}
	}
	precision := float64(matched) / float64(len(faulty))
	recall := float64(matched) / float64(len(golden))
	if precision+recall == 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}

// WithinTolerance reports whether a quality score stays within frac of the
// fault-free score (the "< 10%/20% score difference" criteria of Table IV).
// The fault-free score of a self-referential metric is 1.
func WithinTolerance(score, frac float64) bool {
	return score >= 1-frac
}
