package model

import (
	"testing"

	"fidelity/internal/metrics"
)

// TestCorrectScoreMatchesCorrect holds the injector's one-score path —
// Score once, then CorrectScore on that score — to the Table IV criterion as
// Correct applied it when it computed the score itself, for every metric,
// over faulty outputs that match, differ a little and differ wholly, at
// tolerances 0, 0.1 and 1.
func TestCorrectScoreMatchesCorrect(t *testing.T) {
	oldCorrect := func(w *Workload, golden, faulty AppOutput, tol float64) bool {
		score := w.Score(golden, faulty)
		if w.Metric == MetricTop1 {
			return score == 1
		}
		return metrics.WithinTolerance(score, tol)
	}
	boxes := []metrics.Box{
		{X: 0.1, Y: 0.1, W: 0.3, H: 0.3, Class: 1, Score: 0.9},
		{X: 0.5, Y: 0.5, W: 0.2, H: 0.4, Class: 2, Score: 0.8},
		{X: 0.6, Y: 0.1, W: 0.2, H: 0.2, Class: 0, Score: 0.7},
	}
	golden := AppOutput{Label: 3, Tokens: []int{5, 9, 2, 7, 7, 1, 4, 8, 6, 3}, Boxes: boxes}
	faulty := []AppOutput{
		golden,
		{Label: 4, Tokens: []int{5, 9, 2, 7, 7, 1, 4, 8, 6, 2}, Boxes: boxes[:2]},
		{Label: 0, Tokens: []int{11, 12, 13}, Boxes: []metrics.Box{{X: 0.9, Y: 0.9, W: 0.05, H: 0.05, Class: 3, Score: 0.6}}},
	}
	for _, m := range []MetricKind{MetricTop1, MetricBLEU, MetricDetection} {
		w := &Workload{Metric: m}
		outcomes := map[bool]int{}
		for i, f := range faulty {
			for _, tol := range []float64{0, 0.1, 1} {
				got, want := w.CorrectScore(w.Score(golden, f), tol), oldCorrect(w, golden, f, tol)
				if got != want || w.Correct(golden, f, tol) != want {
					t.Errorf("%v, faulty output %d, tolerance %v: CorrectScore says %v, Correct %v, the criterion %v",
						m, i, tol, got, w.Correct(golden, f, tol), want)
				}
				outcomes[want]++
			}
		}
		if outcomes[true] == 0 || outcomes[false] == 0 {
			t.Errorf("%v: outcomes %v, want both correct and incorrect among the cases", m, outcomes)
		}
	}
}
