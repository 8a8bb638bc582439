package distrib

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"fidelity/internal/faultmodel"
)

// chaosProfile describes one adversarial transport regime. Probabilities are
// per-request in [0,1]; zero fields inject nothing. The same profile drives
// both the client-side chaosTransport and the server-side chaosMiddleware,
// which draw from independent seeded streams so a run's fault schedule is a
// pure function of (seed, request order).
type chaosProfile struct {
	// DropBefore is the probability a request never reaches the server
	// (connection refused / reset before delivery).
	DropBefore float64
	// DropAfter is the probability the server processes the request but the
	// reply is lost — the nasty half of the two generals problem, which is
	// what makes duplicate-report rejection load-bearing.
	DropAfter float64
	// Delay is the probability of an added latency of up to MaxDelay.
	Delay    float64
	MaxDelay time.Duration
	// Duplicate is the probability a request is delivered twice back to
	// back, with the first reply discarded.
	Duplicate float64
	// Truncate is the probability a body (request or response) is cut short.
	Truncate float64
	// Corrupt is the probability a single body byte is bit-flipped.
	Corrupt float64
	// ServerError is the probability (middleware only) that a request starts
	// a burst of BurstLen consecutive 503s.
	ServerError float64
	// BurstLen is the 5xx burst length (0 = 1).
	BurstLen int
}

// chaosPlan is one request's worth of fault decisions, drawn up front under
// the stream lock so the schedule depends only on request order, never on
// downstream timing.
type chaosPlan struct {
	dropBefore  bool
	dropAfter   bool
	delay       time.Duration
	duplicate   bool
	truncReq    bool
	corruptReq  bool
	truncResp   bool
	corruptResp bool
	// cut and flip position the truncation/bit-flip as fractions of the
	// body length, so the same plan applies to any body size.
	cutReq, cutResp   float64
	flipReq, flipResp float64
}

// chaosTransport is a deterministic, seedable http.RoundTripper that
// perturbs traffic according to a chaosProfile: dropped requests, lost
// replies, latency, duplicated deliveries, truncated and bit-corrupted JSON
// bodies. It exists to prove the distributed campaign path end to end: under
// every profile the final StudyResult must stay byte-identical to a clean
// in-process Study, because every perturbation is either retried, rejected
// by the coordinator's lease accounting, or caught by the body digests.
type chaosTransport struct {
	inner   http.RoundTripper
	profile chaosProfile

	mu  sync.Mutex
	rng *rand.Rand
}

// newChaosTransport wraps inner (nil = http.DefaultTransport) with the
// profile's fault schedule, drawn from a faultmodel stream seeded with seed.
func newChaosTransport(seed int64, profile chaosProfile, inner http.RoundTripper) *chaosTransport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &chaosTransport{
		inner:   inner,
		profile: profile,
		rng:     rand.New(faultmodel.NewStreamSource(seed)),
	}
}

// plan draws every decision for one request in a fixed order.
func (t *chaosTransport) plan() chaosPlan {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, r := t.profile, t.rng
	var pl chaosPlan
	pl.dropBefore = r.Float64() < p.DropBefore
	pl.dropAfter = r.Float64() < p.DropAfter
	if r.Float64() < p.Delay && p.MaxDelay > 0 {
		pl.delay = time.Duration(r.Int63n(int64(p.MaxDelay)) + 1)
	}
	pl.duplicate = r.Float64() < p.Duplicate
	pl.truncReq = r.Float64() < p.Truncate
	pl.corruptReq = r.Float64() < p.Corrupt
	pl.truncResp = r.Float64() < p.Truncate
	pl.corruptResp = r.Float64() < p.Corrupt
	pl.cutReq, pl.cutResp = r.Float64(), r.Float64()
	pl.flipReq, pl.flipResp = r.Float64(), r.Float64()
	return pl
}

// RoundTrip applies the drawn plan. Perturbed request bodies keep their
// original DigestHeader, so the server detects the damage and answers 503 —
// which the worker's transient-retry loop turns into a clean re-send.
func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	pl := t.plan()

	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}

	if pl.delay > 0 {
		time.Sleep(pl.delay)
	}
	if pl.dropBefore {
		return nil, fmt.Errorf("chaos: connection dropped before delivery (%s %s)", req.Method, req.URL.Path)
	}

	send := body
	if pl.truncReq && len(body) > 1 {
		send = body[:1+int(pl.cutReq*float64(len(body)-1))]
	} else if pl.corruptReq && len(body) > 0 {
		send = bytes.Clone(body)
		send[int(pl.flipReq*float64(len(send)))%len(send)] ^= 0x20
	}

	deliver := func(b []byte) (*http.Response, error) {
		r2 := req.Clone(req.Context())
		if req.Body != nil {
			r2.Body = io.NopCloser(bytes.NewReader(b))
			r2.ContentLength = int64(len(b))
		}
		return t.inner.RoundTrip(r2)
	}

	if pl.duplicate {
		if resp, err := deliver(send); err == nil {
			// First delivery's reply is discarded; the server must treat the
			// second as the duplicate it is.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	resp, err := deliver(send)
	if err != nil {
		return nil, err
	}
	if pl.dropAfter {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("chaos: reply lost after delivery (%s %s)", req.Method, req.URL.Path)
	}

	if pl.truncResp || pl.corruptResp {
		rb, rerr := io.ReadAll(io.LimitReader(resp.Body, MaxRequestBytes))
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if pl.truncResp && len(rb) > 1 {
			rb = rb[:1+int(pl.cutResp*float64(len(rb)-1))]
		} else if pl.corruptResp && len(rb) > 0 {
			rb[int(pl.flipResp*float64(len(rb)))%len(rb)] ^= 0x20
		}
		resp.Body = io.NopCloser(bytes.NewReader(rb))
		resp.ContentLength = int64(len(rb))
		resp.Header.Del("Content-Length")
	}
	return resp, nil
}

// chaosMiddleware wraps h with server-side chaos: latency, aborted
// connections, and deterministic 5xx bursts, drawn from a faultmodel stream
// seeded with seed. Aborts and 5xxs fire *before* h runs, so they model an
// overloaded or crashing front end, never a half-applied state change (the
// lost-reply case is chaosTransport's DropAfter).
func chaosMiddleware(seed int64, profile chaosProfile, h http.Handler) http.Handler {
	var mu sync.Mutex
	rng := rand.New(faultmodel.NewStreamSource(seed))
	burst := 0
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		mu.Lock()
		var delay time.Duration
		if rng.Float64() < profile.Delay && profile.MaxDelay > 0 {
			delay = time.Duration(rng.Int63n(int64(profile.MaxDelay)) + 1)
		}
		abort := rng.Float64() < profile.DropBefore
		if burst == 0 && rng.Float64() < profile.ServerError {
			burst = profile.BurstLen
			if burst <= 0 {
				burst = 1
			}
		}
		fail := burst > 0
		if fail {
			burst--
		}
		mu.Unlock()

		if delay > 0 {
			time.Sleep(delay)
		}
		if abort {
			panic(http.ErrAbortHandler)
		}
		if fail {
			http.Error(rw, "chaos: injected server error", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(rw, r)
	})
}
