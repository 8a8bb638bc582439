package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// defaultSeed is the seed expected.json is pinned at.
const defaultSeed = 1

//go:embed expected.json
var embeddedExpected []byte

// expectations are the pinned default-seed results: per size class and
// workload, the result digest and the exact counts that do not depend on the
// box. At any other seed only repeat-to-repeat and fleet-vs-in-process
// equality can be checked.
type expectations struct {
	Seed  int64                              `json:"seed"`
	Sizes map[string]map[string]expectedCase `json:"sizes"`
}

type expectedCase struct {
	// Digests[i] is the result digest of the campaign sampled at
	// repeatSeed(i), for every campaign a run makes.
	Digests []string           `json:"digests"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// loadExpectations reads path, or the embedded expected.json when path is
// empty.
func loadExpectations(path string) (*expectations, error) {
	blob := embeddedExpected
	if path != "" {
		var err error
		if blob, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	var e expectations
	if err := json.Unmarshal(blob, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// lookup returns the pinned case for wl at this run's seed and sizes.
func (e *expectations) lookup(b *bench, wl workload) (expectedCase, bool) {
	if e == nil || b.seed != e.Seed {
		return expectedCase{}, false
	}
	c, ok := e.Sizes[sizeClass(b.quick)][wl.name]
	return c, ok
}

// checker accumulates the result checks of one pass: the campaign at
// repeatSeed(i) has the same digest every time it runs, that digest is the
// pinned one at the default seed, and no operation failed.
type checker struct {
	b            *bench
	wl           workload
	digests      []string // by repeat index; "" where none ran
	campaigns    int
	attempted    int
	failed       int
	mismatchFrac float64
	errs         []string
}

func newChecker(b *bench, wl workload) *checker { return &checker{b: b, wl: wl} }

func (c *checker) errorf(format string, args ...any) {
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
}

// add checks the outcome of one campaign sampled at repeatSeed(i). A
// campaign whose digest differs from an earlier run of the same repeat index,
// or from the pinned one, counts every one of its experiments as failed.
func (c *checker) add(i int, o outcome) {
	c.campaigns++
	c.attempted += o.units
	bad := o.failedOps
	if o.err != "" {
		c.errorf("campaign %d: %s", c.campaigns, o.err)
	}
	for len(c.digests) <= i {
		c.digests = append(c.digests, "")
	}
	want, what := c.digests[i], "an earlier run of the same campaign"
	if pinned, ok := c.b.expected.lookup(c.b, c.wl); ok && i < len(pinned.Digests) {
		want, what = pinned.Digests[i], "the one pinned in expected.json"
	}
	if want != "" && o.digest != want {
		c.errorf("campaign %d (repeat seed %d): result digest %s differs from %s (%s)", c.campaigns, c.b.repeatSeed(i), o.digest, what, want)
		bad = o.units
	}
	c.digests[i] = o.digest
	c.failed += min(bad, o.units)
	c.mismatchFrac = max(c.mismatchFrac, o.mismatchFrac)
}

// sameAs requires the digest at the run's own seed to equal another path's
// digest of the same campaign.
func (c *checker) sameAs(what, digest string) {
	if len(c.digests) == 0 || digest != c.digests[0] {
		c.errorf("result digest %v differs from the %s (%s)", c.digests, what, digest)
		c.failed = c.attempted
	}
}

// counts compares a traced pass's pinned counts with expected.json.
func (c *checker) counts(metrics []metric) {
	want, ok := c.b.expected.lookup(c.b, c.wl)
	if !ok {
		return
	}
	got := map[string]metric{}
	for _, m := range metrics {
		got[m.Name] = m
	}
	for _, name := range sortedKeys(want.Counts) {
		if m, ok := got[name]; !ok || m.N == 0 || m.Value != want.Counts[name] {
			c.errorf("%s = %v, expected.json pins %v", name, m.Value, want.Counts[name])
		}
	}
}

// finish writes the verdict into res.
func (c *checker) finish(res *result) {
	res.Digests = c.digests
	res.Attempted = c.attempted
	res.Failed = c.failed
	res.Errors = c.errs
	res.Correct = len(c.errs) == 0 && c.failed == 0
}
