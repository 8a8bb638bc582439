package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call. Spans of one traced pass share the workload name as
// their identifier.
type span struct {
	ID       int               `json:"id"`
	Parent   int               `json:"parent"` // 0 for the root
	Name     string            `json:"name"`
	Workload string            `json:"workload"`
	StartUS  float64           `json:"start_us"`
	EndUS    float64           `json:"end_us"`
	SelfUS   float64           `json:"self_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// tracer keeps the spans of one traced pass in memory. It is driven from a
// single goroutine, so the open spans form a stack and a span's parent is
// whatever was open when it began.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

func (t *tracer) now() float64 { return float64(time.Since(t.origin).Nanoseconds()) / 1e3 }

// begin opens a span under the innermost open one and returns its ID. A nil
// tracer records nothing, so code shared with the untraced pass can call it.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartUS: t.now()})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, tagging it with key/value pairs, and
// returns its duration.
func (t *tracer) end(id int, attrs ...string) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id-1]
	s.EndUS = t.now()
	for i := 0; i+1 < len(attrs); i += 2 {
		if s.Attrs == nil {
			s.Attrs = map[string]string{}
		}
		s.Attrs[attrs[i]] = attrs[i+1]
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("benchmark: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	return time.Duration((s.EndUS - s.StartUS) * 1e3)
}

// time runs fn inside a span and returns how long it took.
func (t *tracer) time(name string, fn func() error) (time.Duration, error) {
	id := t.begin(name)
	err := fn()
	return t.end(id), err
}

// each runs fn n times inside one span and returns each call's duration in
// the unit `scale` converts seconds to (1e3 for ms, 1e6 for us, 1e9 for ns).
func (t *tracer) each(name string, n int, scale float64, fn func() error) ([]float64, error) {
	id := t.begin(name)
	defer t.end(id)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		err := fn()
		out = append(out, time.Since(start).Seconds()*scale)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// finish computes every span's self time — its duration minus the part its
// children cover — and the share of the root span its direct children cover.
func (t *tracer) finish() (coverage float64) {
	children := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.EndUS - s.StartUS
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfUS = (s.EndUS - s.StartUS) - children[s.ID]
	}
	if len(t.spans) == 0 {
		return 0
	}
	root := t.spans[0]
	if d := root.EndUS - root.StartUS; d > 0 {
		coverage = children[root.ID] / d
	}
	return coverage
}

// write stores the spans as JSON lines, one span a line.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}
