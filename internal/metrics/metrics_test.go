package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestBLEUIdentity(t *testing.T) {
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if b := BLEU(s, s); b != 1 {
		t.Errorf("self-BLEU = %v", b)
	}
}

func TestBLEUProperties(t *testing.T) {
	ref := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	oneOff := append([]int(nil), ref...)
	oneOff[5] = 99
	manyOff := []int{99, 98, 97, 96, 95, 94, 93, 92, 91, 90}
	b1 := BLEU(ref, oneOff)
	bm := BLEU(ref, manyOff)
	if !(1 > b1 && b1 > bm) {
		t.Errorf("BLEU ordering violated: 1 > %v > %v", b1, bm)
	}
	if bm > 0.2 {
		t.Errorf("fully wrong sentence scored %v", bm)
	}
}

func TestBLEUBrevityPenalty(t *testing.T) {
	ref := []int{1, 2, 3, 4, 5, 6, 7, 8}
	short := ref[:4]
	full := BLEU(ref, ref)
	trunc := BLEU(ref, short)
	if trunc >= full {
		t.Errorf("truncation should be penalized: %v vs %v", trunc, full)
	}
}

func TestBLEUEmpty(t *testing.T) {
	if BLEU(nil, nil) != 1 {
		t.Error("empty vs empty = 1")
	}
	if BLEU([]int{1, 2}, nil) != 0 {
		t.Error("empty hypothesis = 0")
	}
}

func TestIoU(t *testing.T) {
	a := Box{X: 0, Y: 0, W: 2, H: 2}
	if iou := IoU(a, a); math.Abs(iou-1) > 1e-12 {
		t.Errorf("self IoU = %v", iou)
	}
	b := Box{X: 1, Y: 1, W: 2, H: 2}
	// Intersection 1, union 7.
	if iou := IoU(a, b); math.Abs(iou-1.0/7) > 1e-12 {
		t.Errorf("IoU = %v, want 1/7", iou)
	}
	c := Box{X: 5, Y: 5, W: 1, H: 1}
	if IoU(a, c) != 0 {
		t.Error("disjoint IoU must be 0")
	}
}

func TestDetectionF1(t *testing.T) {
	g := []Box{
		{X: 0, Y: 0, W: 1, H: 1, Class: 0},
		{X: 3, Y: 3, W: 1, H: 1, Class: 1},
	}
	if f := DetectionF1(g, g); f != 1 {
		t.Errorf("self F1 = %v", f)
	}
	// One box missing: precision 1, recall 0.5, F1 = 2/3.
	if f := DetectionF1(g, g[:1]); math.Abs(f-2.0/3) > 1e-9 {
		t.Errorf("partial F1 = %v, want 2/3", f)
	}
	// Class mismatch kills the match.
	wrong := []Box{{X: 0, Y: 0, W: 1, H: 1, Class: 1}, {X: 3, Y: 3, W: 1, H: 1, Class: 0}}
	if f := DetectionF1(g, wrong); f != 0 {
		t.Errorf("class-mismatched F1 = %v", f)
	}
	if DetectionF1(nil, nil) != 1 {
		t.Error("empty/empty = 1")
	}
	if DetectionF1(g, nil) != 0 || DetectionF1(nil, g) != 0 {
		t.Error("one-sided empty = 0")
	}
}

// Greedy matching must be one-to-one: duplicated predictions can't inflate
// the score.
func TestDetectionF1OneToOne(t *testing.T) {
	g := []Box{{X: 0, Y: 0, W: 1, H: 1, Class: 0}}
	dup := []Box{
		{X: 0, Y: 0, W: 1, H: 1, Class: 0},
		{X: 0.01, Y: 0, W: 1, H: 1, Class: 0},
	}
	f := DetectionF1(g, dup)
	// matched=1, precision=0.5, recall=1, F1=2/3.
	if math.Abs(f-2.0/3) > 1e-9 {
		t.Errorf("duplicate-prediction F1 = %v, want 2/3", f)
	}
}

func TestWithinTolerance(t *testing.T) {
	if !WithinTolerance(0.95, 0.1) {
		t.Error("0.95 within 10%")
	}
	if WithinTolerance(0.85, 0.1) {
		t.Error("0.85 not within 10%")
	}
	if !WithinTolerance(0.85, 0.2) {
		t.Error("0.85 within 20%")
	}
}

// Property: BLEU is symmetric-ish in degradation — adding noise monotonically
// degrades the expected score.
func TestBLEUDegradesWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := make([]int, 30)
	for i := range ref {
		ref[i] = rng.Intn(50)
	}
	prev := 1.0
	for _, corrupt := range []int{1, 5, 15, 30} {
		var sum float64
		for trial := 0; trial < 20; trial++ {
			hyp := append([]int(nil), ref...)
			for j := 0; j < corrupt; j++ {
				hyp[rng.Intn(len(hyp))] = 50 + rng.Intn(50)
			}
			sum += BLEU(ref, hyp)
		}
		avg := sum / 20
		if avg >= prev {
			t.Errorf("BLEU did not degrade at corruption %d: %v >= %v", corrupt, avg, prev)
		}
		prev = avg
	}
}

// bleuByMaps is BLEU as it was first written: n-gram counts in maps keyed by
// the two low bytes of every token id, so exact for ids below 65 536 only.
func bleuByMaps(ref, hyp []int) float64 {
	if len(hyp) == 0 {
		if len(ref) == 0 {
			return 1
		}
		return 0
	}
	key := func(gram []int) string {
		var b []byte
		for _, g := range gram {
			b = append(b, byte(g), byte(g>>8), ',')
		}
		return string(b)
	}
	logSum := 0.0
	for n := 1; n <= 4; n++ {
		match, total := 0, 0
		if len(hyp) >= n {
			refCount, hypCount := map[string]int{}, map[string]int{}
			for i := 0; i+n <= len(ref); i++ {
				refCount[key(ref[i:i+n])]++
			}
			for i := 0; i+n <= len(hyp); i++ {
				hypCount[key(hyp[i:i+n])]++
				total++
			}
			for k, c := range hypCount {
				match += min(c, refCount[k])
			}
		}
		logSum += math.Log((float64(match) + 1) / (float64(total) + 1))
	}
	bleu := math.Exp(logSum / 4)
	if len(hyp) < len(ref) {
		bleu *= math.Exp(1 - float64(len(ref))/float64(len(hyp)))
	}
	return bleu
}

// Token ids that agree in their two low bytes are different tokens: a
// hypothesis made of them shares no n-gram with the reference, and BLEU must
// not depend on how large the ids are.
func TestBLEULargeTokenIDs(t *testing.T) {
	const big = 1 << 16
	for _, tc := range []struct {
		name           string
		ref, hyp, same []int // BLEU(ref, hyp) must equal BLEU(same[0:n], same[n:]) of small ids
	}{
		{"ids 65536 apart", []int{1, 2, 3, 4, 5}, []int{1 + big, 2 + big, 3 + big, 4 + big, 5 + big},
			[]int{1, 2, 3, 4, 5, 11, 12, 13, 14, 15}},
		{"one large id off", []int{7, 8 + 3*big, 9, 10, 7, 8}, []int{7, 8, 9, 10, 7, 8},
			[]int{7, 20, 9, 10, 7, 8, 7, 8, 9, 10, 7, 8}},
		{"large ids, repeated n-grams", []int{big, big, 2 * big, big, big}, []int{big, big, big, 2 * big, 0},
			[]int{1, 1, 2, 1, 1, 1, 1, 1, 2, 3}},
		{"negative ids", []int{-1, -2, -3, -4}, []int{-1, -2, -3, 65535},
			[]int{1, 2, 3, 4, 1, 2, 3, 5}},
	} {
		n := len(tc.ref)
		got, want := BLEU(tc.ref, tc.hyp), bleuByMaps(tc.same[:n], tc.same[n:])
		if got != want {
			t.Errorf("%s: BLEU = %v, want %v (the same sentences in small ids)", tc.name, got, want)
		}
		if got == 1 {
			t.Errorf("%s: BLEU = 1 for different sentences", tc.name)
		}
	}
}

// Below 65 536 the map-keyed original was exact: the rewritten count must
// return its value bit for bit, on random short sentences over small and
// large vocabularies, of equal and unequal length, down to the empty one.
func TestBLEUMatchesMapCount(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 5000; trial++ {
		vocab := []int{2, 5, 64, 65535}[trial%4]
		ref, hyp := make([]int, rng.Intn(24)), make([]int, rng.Intn(24))
		for i := range ref {
			ref[i] = rng.Intn(vocab)
		}
		copy(hyp, ref) // a corrupted copy, as a faulty decode is
		for i := range hyp {
			if i >= len(ref) || rng.Intn(4) == 0 {
				hyp[i] = rng.Intn(vocab)
			}
		}
		if got, want := BLEU(ref, hyp), bleuByMaps(ref, hyp); got != want {
			t.Fatalf("BLEU(%v, %v) = %v, the map count gives %v", ref, hyp, got, want)
		}
	}
}
