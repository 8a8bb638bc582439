package distrib

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"fidelity/internal/campaign"
	"fidelity/internal/faultmodel"
	"fidelity/internal/telemetry"
)

// DefaultPoll is the worker's transient-error backoff base (and its poll
// cadence against a draining coordinator) when WorkerOptions.Poll is zero.
const DefaultPoll = 500 * time.Millisecond

// leaseWait is how long a worker offers to be held on POST /v1/lease; the
// coordinator caps it at a quarter of its lease TTL.
const leaseWait = DefaultLeaseTTL

// WorkerOptions configures Work.
type WorkerOptions struct {
	// BaseURL is the coordinator, e.g. "http://host:9090".
	BaseURL string
	// ID names this worker in leases, reports and telemetry attribution.
	ID string
	// Poll is the base of the transient retry backoff and the poll cadence
	// while the coordinator drains (0 = DefaultPoll). An idle worker does not
	// poll: it is held at the coordinator until there is work.
	Poll time.Duration
	// HTTPClient overrides http.DefaultClient (tests, timeouts).
	HTTPClient *http.Client
	// Telemetry, when non-nil, collects this worker's execution telemetry;
	// its source is set to ID and snapshots ride along on every report.
	Telemetry *telemetry.Collector
}

// worker is the resolved client state for one Work call.
type worker struct {
	base string
	id   string
	poll time.Duration
	hc   *http.Client
	tel  *telemetry.Collector
	// rng feeds the poll/backoff jitter that de-synchronizes a restarted
	// fleet. Seeded from the worker ID so each worker's cadence is distinct
	// but reproducible; only the Work goroutine draws from it (heartbeat
	// posts never jitter), so no lock is needed.
	rng *rand.Rand

	// runner executes every lease on the campaign state they share: a
	// campaign.ShardRunner built once from the coordinator's spec (tests wrap
	// it to stall a shard).
	runner interface {
		Run(context.Context, campaign.ShardRun) (campaign.ShardCheckpoint, error)
	}
}

// workerSeed hashes a worker ID into a jitter stream seed.
func workerSeed(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int64(h.Sum64())
}

// jitter spreads d uniformly over [d/2, 3d/2) so a fleet restarted in
// lockstep fans back out instead of thundering-herding the coordinator on a
// shared cadence.
func (wk *worker) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d/2 + time.Duration(wk.rng.Int63n(int64(d)))
}

// Work runs a worker loop against the coordinator at o.BaseURL until the
// campaign finishes or ctx is cancelled: fetch the campaign spec, then
// repeatedly execute a leased shard on one campaign.ShardRunner (streaming
// checkpoints back as heartbeats) and report its terminal state; the reply to
// that report carries the next lease, so POST /v1/lease (a long-poll) is
// needed only at start-up and when a reply came back empty. A lease the
// coordinator cancels (it lapsed and was re-issued elsewhere) is abandoned
// mid-shard; transient HTTP failures are retried with exponential backoff, so
// the worker survives coordinator restarts.
func Work(ctx context.Context, o WorkerOptions) error {
	if o.BaseURL == "" {
		return fmt.Errorf("distrib: worker needs a coordinator BaseURL")
	}
	if o.ID == "" {
		return fmt.Errorf("distrib: worker needs an ID")
	}
	wk := &worker{
		base: strings.TrimRight(o.BaseURL, "/"),
		id:   o.ID,
		poll: o.Poll,
		hc:   o.HTTPClient,
		tel:  o.Telemetry,
		rng:  rand.New(faultmodel.NewStreamSource(workerSeed(o.ID))),
	}
	if wk.poll <= 0 {
		wk.poll = DefaultPoll
	}
	if wk.hc == nil {
		wk.hc = http.DefaultClient
	}
	if wk.tel != nil {
		wk.tel.SetSource(o.ID)
	}

	var hello HelloReply
	if err := wk.retry(ctx, func() error { return wk.get(ctx, "/v1/campaign", &hello) }); err != nil {
		return err
	}
	spec, err := hello.campaign()
	if err != nil {
		return err
	}
	w, err := spec.BuildWorkload()
	if err != nil {
		return err
	}
	opts := spec.Options()
	opts.Telemetry = wk.tel
	if wk.runner, err = campaign.NewShardRunner(&hello.Config, w, opts); err != nil {
		return err
	}
	return wk.loop(ctx)
}

// loop executes leases until the campaign finishes or ctx is cancelled.
func (wk *worker) loop(ctx context.Context) error {
	var lease *Lease
	var err error
	for done := false; !done; {
		if lease == nil {
			lease, done, err = wk.acquire(ctx)
		} else {
			lease, done, err = wk.execute(ctx, lease)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// acquire asks for a lease, offering to be held until there is one. An empty
// reply that names a delay — the coordinator is draining, or answers at once
// instead of holding requests — is slept out, jittered, before returning.
func (wk *worker) acquire(ctx context.Context) (l *Lease, done bool, err error) {
	var reply LeaseReply
	req := LeaseRequest{Worker: wk.id, WaitMS: leaseWait.Milliseconds()}
	if err := wk.retry(ctx, func() error { return wk.post(ctx, "/v1/lease", req, &reply) }); err != nil {
		return nil, false, err
	}
	if reply.Lease == nil && (reply.Draining || reply.RetryAfterMS > 0) {
		delay := wk.poll
		if reply.RetryAfterMS > 0 {
			delay = time.Duration(reply.RetryAfterMS) * time.Millisecond
		}
		err = sleep(ctx, wk.jitter(delay))
	}
	return reply.Lease, reply.Done, err
}

// execute runs one leased shard to a terminal report (or abandons it when
// the coordinator cancels the lease). It returns the next lease when the
// coordinator attached one to its reply, and done=true once the coordinator
// reports the campaign finished.
func (wk *worker) execute(ctx context.Context, l *Lease) (next *Lease, done bool, err error) {
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	heartbeat := time.Duration(l.TTLMS) * time.Millisecond / 3
	if heartbeat <= 0 {
		heartbeat = wk.poll
	}
	// Heartbeat on its own clock: a shard can sit between experiment
	// boundaries for longer than a TTL (a window's execution phase, a hung
	// experiment under the watchdog), and its lease must outlive that. Run
	// streams a clone of the shard's checkpoint into latest every quarter
	// heartbeat; each heartbeat posts the newest, so a re-leased shard loses
	// little more than a heartbeat of work. A Cancel or Done reply stops the
	// shard at its next experiment boundary. Send errors are tolerated — the
	// lease simply risks expiry until one gets through.
	var latest atomic.Pointer[campaign.ShardCheckpoint]
	start := campaign.NewShardCheckpoint(l.Shard)
	if l.Resume != nil {
		start = *l.Resume
	}
	latest.Store(&start)
	stopHeartbeat := campaign.Every(heartbeat, func() {
		var rep ReportReply
		req := ReportRequest{Worker: wk.id, LeaseID: l.ID, Shard: *latest.Load(), Telemetry: wk.snapshot()}
		if err := wk.post(leaseCtx, "/v1/report", req, &rep); err == nil && (rep.Cancel || rep.Done) {
			cancel()
		}
	})
	sc, runErr := wk.runner.Run(leaseCtx, campaign.ShardRun{
		Index:      l.Shard,
		Resume:     l.Resume,
		Interval:   heartbeat / 4,
		OnProgress: func(s campaign.ShardCheckpoint) { latest.Store(&s) },
	})
	stopHeartbeat()

	final := ReportRequest{Worker: wk.id, LeaseID: l.ID, Shard: sc, Final: true, WantLease: true, Telemetry: wk.snapshot()}
	switch {
	case runErr == nil || errors.Is(runErr, campaign.ErrShardExhausted):
		final.Exhausted = errors.Is(runErr, campaign.ErrShardExhausted)
	case leaseCtx.Err() != nil && ctx.Err() == nil:
		// The coordinator cancelled the lease mid-shard: the shard has moved
		// on, so there is nothing to finalize. Poll for fresh work.
		return nil, false, nil
	case ctx.Err() != nil:
		// Worker shutdown: vanish without a final report. The lease expires
		// and the coordinator re-issues the shard from our last heartbeat.
		return nil, false, ctx.Err()
	default:
		// Campaign failure (bad configuration, dataset error): report it so
		// the coordinator fails the campaign, then exit.
		final.Error = runErr.Error()
	}
	var rep ReportReply
	if err := wk.retry(ctx, func() error { return wk.post(ctx, "/v1/report", final, &rep) }); err != nil {
		return nil, false, err
	}
	if final.Error != "" {
		return nil, false, runErr
	}
	return rep.Lease, rep.Done, nil
}

// snapshot returns the worker's current telemetry, nil when uncollected.
func (wk *worker) snapshot() *telemetry.Snapshot {
	if wk.tel == nil {
		return nil
	}
	s := wk.tel.Snapshot()
	return &s
}

func (wk *worker) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, wk.base+path, nil)
	if err != nil {
		return err
	}
	return wk.do(req, out)
}

func (wk *worker) post(ctx context.Context, path string, in, out any) error {
	blob, err := encodeBody(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, wk.base+path, bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	// The digest lets the coordinator detect a body corrupted in transit
	// and answer 503, which the retry loop turns into a clean re-send.
	req.Header.Set(DigestHeader, digestBytes(blob))
	return wk.do(req, out)
}

// transientError marks a failure worth retrying: the coordinator being down
// or restarting, not a protocol violation.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

func (wk *worker) do(req *http.Request, out any) error {
	resp, err := wk.hc.Do(req)
	if err != nil {
		return &transientError{err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxRequestBytes+1))
	if err != nil {
		return &transientError{err}
	}
	if len(body) > MaxRequestBytes {
		return fmt.Errorf("distrib: %s: reply exceeds %d bytes", req.URL.Path, MaxRequestBytes)
	}
	if resp.StatusCode >= 500 {
		return &transientError{fmt.Errorf("distrib: %s: %s: %s", req.URL.Path, resp.Status, bytes.TrimSpace(body))}
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("distrib: %s: %s: %s", req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	if want := resp.Header.Get(DigestHeader); want != "" && digestBytes(body) != want {
		// The reply was corrupted in transit; retry rather than decode it.
		return &transientError{fmt.Errorf("distrib: %s: reply body digest mismatch", req.URL.Path)}
	}
	if out == nil {
		return nil
	}
	if err := decodeReply(body, out); err != nil {
		return fmt.Errorf("distrib: %s: decode reply: %w", req.URL.Path, err)
	}
	return nil
}

// retry runs fn until it succeeds, fails permanently, or ctx is cancelled.
// Transient failures back off exponentially from Poll, capped at 16×, with
// deterministic per-worker jitter so a fleet that lost its coordinator does
// not reconverge on a synchronized retry cadence.
func (wk *worker) retry(ctx context.Context, fn func() error) error {
	backoff := wk.poll
	for {
		err := fn()
		var te *transientError
		if err == nil || !errors.As(err, &te) {
			return err
		}
		if err := sleep(ctx, wk.jitter(backoff)); err != nil {
			return err
		}
		if backoff < 16*wk.poll {
			backoff *= 2
		}
	}
}

func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
