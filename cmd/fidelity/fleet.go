package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fidelity/internal/campaign"
	"fidelity/internal/distrib"
	"fidelity/internal/model"
	"fidelity/internal/telemetry"
)

func serve(fs *flag.FlagSet) func(context.Context) error {
	c := &cli{net: "mobilenet", opts: campaign.StudyOptions{Samples: 400, Inputs: 4, Tolerance: 0.1, Seed: 1}}
	addr := fs.String("addr", ":9090", "listen address for the coordinator API")
	precision := fs.String("precision", "fp16", "numeric precision (fp16, int16, int8)")
	leaseTTL := fs.Duration("lease-ttl", distrib.DefaultLeaseTTL, "per-lease heartbeat budget; lapsed leases are re-issued")
	auditFraction := fs.Float64("audit-fraction", 0, "fraction of completed shards re-run on a second worker and byte-compared (0 = off, 1 = all; mismatch flags the campaign partial)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "on SIGTERM/SIGINT, refuse new leases and wait up to this long for in-flight reports before persisting and exiting (0 = exit immediately)")
	state := fs.String("state", "", "persist lease table + checkpoints here; restart resumes the campaign (empty = in-memory)")
	result := fs.String("result", "", "write the final StudyResult JSON here (empty = stdout)")
	fNet.on(fs, c, "workload model name")
	fTolerance.on(fs, c, "application output-error tolerance")
	fSamples.on(fs, c, "injection experiments per fault model per input")
	fTargetCI.on(fs, c, "adaptive stratified sampling: the coordinator plans rounds until every stratum's 95% Wilson CI half-width reaches this target (mutually exclusive with -samples; in (0, 0.5])")
	fInputs.on(fs, c, "distinct dataset inputs")
	fSeed.on(fs, c, "sampling seed (campaign identity)")
	fShards.on(fs, c, "deterministic sampling shards (0 = default; campaign identity like -seed)")
	fPerLayer.on(fs, c, "estimate Prob_SWmask per layer (multiplies experiment count)")
	fExperimentTimeout.on(fs, c, "per-experiment watchdog deadline on workers (0 = off)")
	fFailureBudget.on(fs, c, "max quarantined experiments per shard before it degrades (0 = default)")
	fProgress.on(fs, c, "emit merged JSONL telemetry snapshots to stderr at this interval (0 = off)")
	fManifest.on(fs, c, "write a machine-readable run manifest to this file (empty disables)")
	return c.profiled(fs, func(ctx context.Context) error {
		// Flag validation runs before any listener binds, so rejected
		// invocations exit immediately without touching the network.
		if err := c.finish(fs); err != nil {
			return err
		}
		if *leaseTTL <= 0 {
			return usagef("-lease-ttl must be positive (got %v)", *leaseTTL)
		}
		if *auditFraction < 0 || *auditFraction > 1 {
			return usagef("-audit-fraction must be in [0,1] (got %g)", *auditFraction)
		}
		if *drainTimeout < 0 {
			return usagef("-drain-timeout must be non-negative (got %v)", *drainTimeout)
		}

		tel := telemetry.New()
		tel.SetSource("coordinator")
		spec := distrib.NewCampaignSpec(c.net, *precision, model.StudySeed, c.opts)
		co, err := distrib.NewCoordinator(distrib.CoordinatorOptions{
			Spec:          spec,
			LeaseTTL:      *leaseTTL,
			StatePath:     *state,
			AuditFraction: *auditFraction,
			Telemetry:     tel,
		})
		if err != nil {
			return err
		}

		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		// Bounded timeouts so one stalled client cannot wedge the coordinator;
		// request bodies are capped by the handler's integrity layer.
		srv := &http.Server{
			Handler:           co.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.Serve(ln) }()
		defer func() {
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(shutCtx)
		}()
		fmt.Fprintf(os.Stderr, "fidelity: serving campaign %s/%s (%d shards) on %s\n",
			spec.Workload, spec.Precision, co.Spec().Shards, ln.Addr())

		stopProgress := c.emitProgress(func() telemetry.Snapshot { return co.Status().Telemetry })
		start := time.Now()
		res, resErr := co.Result(ctx)
		if resErr != nil && ctx.Err() != nil {
			// Graceful drain: stop handing out leases, give in-flight reports a
			// bounded window to land, then persist whatever was accepted. Workers
			// polling during the drain are told Draining and keep polling, so a
			// restarted coordinator picks them straight back up.
			co.StartDrain()
			fmt.Fprintf(os.Stderr, "fidelity: draining: refusing new leases, waiting up to %v for in-flight reports\n", *drainTimeout)
			waitDrain(co, *drainTimeout)
			if r, done, ferr := co.Finished(); done && ferr == nil {
				// The last reports landed during the drain: finish normally.
				res, resErr = r, nil
			}
		}
		stopProgress()
		st := co.Status()
		m := serveManifest{manifestHeader: newManifestHeader("serve", start), Spec: st.Spec, Status: st, Completed: st.Completed}
		if res != nil {
			m.FIT, m.Partial = res.FIT.Total, res.Partial
		}
		c.saveManifest(tel, &m)
		if resErr != nil {
			select {
			case err := <-serveErr:
				if err != nil && !errors.Is(err, http.ErrServerClosed) {
					return err
				}
			default:
			}
			if ctx.Err() != nil && *state != "" {
				if perr := co.PersistNow(); perr != nil {
					fmt.Fprintln(os.Stderr, "fidelity:", perr)
				}
				fmt.Fprintf(os.Stderr, "fidelity: state saved to %s; restart with the same -state to resume\n", *state)
			}
			return resErr
		}
		if err := writeJSON(*result, res, " "); err != nil {
			return err
		}
		if *result != "" {
			fmt.Fprintf(os.Stderr, "fidelity: result written to %s (FIT=%.2f, %d experiments)\n",
				*result, res.FIT.Total, res.Experiments)
		}
		if res.Partial {
			// Degraded campaign: keep the state file — re-serving it after the
			// failure is fixed completes the study instead of repeating it.
			return errPartial
		}
		removeFinished(*state)
		return nil
	})
}

// waitDrain blocks until the coordinator has no live leases (every in-flight
// shard reported or lapsed), the campaign finishes, the timeout lapses, or a
// second interrupt demands an immediate exit.
func waitDrain(co *distrib.Coordinator, timeout time.Duration) {
	if timeout <= 0 {
		return
	}
	// signal.NotifyContext consumed the first signal; register a fresh
	// channel so a second one can cut the drain short.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	deadline := time.After(timeout)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		if co.Idle() {
			return
		}
		if _, done, _ := co.Finished(); done {
			return
		}
		select {
		case <-tick.C:
		case <-deadline:
			fmt.Fprintln(os.Stderr, "fidelity: drain timeout; exiting with leases still in flight")
			return
		case <-sig:
			fmt.Fprintln(os.Stderr, "fidelity: second interrupt; skipping drain")
			return
		}
	}
}

// serveManifest is the serve-mode run summary: the campaign spec, the final
// lease-table status, and the merged (per-source attributed) telemetry of
// every worker that reported.
type serveManifest struct {
	manifestHeader
	Spec      distrib.CampaignSpec `json:"spec"`
	Status    distrib.StatusReply  `json:"status"`
	FIT       float64              `json:"fit,omitempty"`
	Partial   bool                 `json:"partial,omitempty"`
	Completed bool                 `json:"completed"`
}

func work(fs *flag.FlagSet) func(context.Context) error {
	c := &cli{}
	coordinator := fs.String("coordinator", "", "coordinator base URL, e.g. http://host:9090 (required)")
	id := fs.String("id", "", "worker name for leases and telemetry attribution (default host-pid)")
	poll := fs.Duration("poll", distrib.DefaultPoll, "lease poll cadence and retry backoff base")
	fProgress.on(fs, c, "emit JSONL telemetry snapshots to stderr at this interval (0 = off)")
	return c.profiled(fs, func(ctx context.Context) error {
		if *coordinator == "" {
			return usagef("-coordinator is required")
		}
		if *poll <= 0 {
			return usagef("-poll must be positive (got %v)", *poll)
		}
		if *id == "" {
			host, _ := os.Hostname()
			if host == "" {
				host = "worker"
			}
			*id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		tel := telemetry.New()
		defer c.emitProgress(tel.Snapshot)()
		fmt.Fprintf(os.Stderr, "fidelity: worker %s polling %s\n", *id, *coordinator)
		return distrib.Work(ctx, distrib.WorkerOptions{
			BaseURL:   *coordinator,
			ID:        *id,
			Poll:      *poll,
			Telemetry: tel,
		})
	})
}
