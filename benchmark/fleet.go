package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fidelity/internal/campaign"
	"fidelity/internal/distrib"
	"fidelity/internal/telemetry"
)

// fleetRun is what one campaign through the loopback fleet yields.
type fleetRun struct {
	res *campaign.StudyResult
	// wall runs from NewCoordinator to the assembled result: a fleet user
	// waits for the coordinator to come up too.
	wall time.Duration
	// drain runs from the result being ready to the last Work returning.
	drain  time.Duration
	status distrib.StatusReply
	// Read back from the state file of a persisted run: its size, the
	// coordinator's lease counter and the shard checkpoints it collected.
	stateBytes int64
	leases     int
	shards     []campaign.ShardCheckpoint
}

// fleetOptions select what the traced pass adds to a fleet campaign.
type fleetOptions struct {
	// persist gives the coordinator a sealed state file under dir, as
	// `fidelityd serve -state` does. Without it the coordinator keeps its
	// state in memory, which is the CLI's default and what the end-to-end
	// pass runs: on the reference box the latency of an fsync moves between
	// 1 and 4 ms for minutes at a time, and 300 of them a campaign made the
	// fleet's wall follow the host's disk instead of the program.
	persist bool
	// telemetry attaches a collector to every worker, as `fidelityd work`
	// does; reports then carry snapshots.
	telemetry bool
	// naturalDrain lets the workers find out by polling that the campaign is
	// over, so drain is the wait a real fleet has. Otherwise they are
	// cancelled the moment the result is ready.
	naturalDrain bool
	// tr, when non-nil, gets spans for coordinator start, the wait for the
	// result and the drain.
	tr *tracer
}

// runFleet runs spec through distrib.NewCoordinator behind an httptest
// loopback server with `workers` in-process distrib.Work clients at the
// default poll cadence and lease TTL and no audits. It returns only after the
// server is closed, every Work has returned and any state directory is gone.
func runFleet(ctx context.Context, spec distrib.CampaignSpec, workers int, dir string, o fleetOptions) (fr fleetRun, err error) {
	statePath := ""
	if o.persist {
		stateDir, err := os.MkdirTemp(dir, "fleet-")
		if err != nil {
			return fr, err
		}
		defer func() {
			if rerr := os.RemoveAll(stateDir); err == nil {
				err = rerr
			}
		}()
		statePath = filepath.Join(stateDir, "state.json")
	}

	start := time.Now()
	id := o.tr.begin("distrib.NewCoordinator")
	coord, err := distrib.NewCoordinator(distrib.CoordinatorOptions{Spec: spec, StatePath: statePath})
	o.tr.end(id)
	if err != nil {
		return fr, err
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wo := distrib.WorkerOptions{BaseURL: srv.URL, ID: fmt.Sprintf("bench-%d", i)}
		if o.telemetry {
			wo.Telemetry = telemetry.New()
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = distrib.Work(wctx, wo)
		}(i)
	}
	id = o.tr.begin("distrib.Work x" + fmt.Sprint(workers) + " until Coordinator.Result")
	res, err := coord.Result(wctx)
	o.tr.end(id)
	fr.wall = time.Since(start)
	if err != nil || !o.naturalDrain {
		cancel()
	}
	id = o.tr.begin("drain: last distrib.Work returns")
	wg.Wait()
	o.tr.end(id)
	fr.drain = time.Since(start) - fr.wall
	if err != nil {
		return fr, fmt.Errorf("fleet campaign: %w", err)
	}
	for i, werr := range errs {
		// A worker cancelled while it slept out a poll delay is the expected
		// end of a run that does not wait for the natural drain.
		if werr != nil && !(errors.Is(werr, context.Canceled) && !o.naturalDrain) {
			return fr, fmt.Errorf("fleet worker bench-%d: %w", i, werr)
		}
	}
	fr.res = res
	fr.status = coord.Status()
	if !o.persist {
		return fr, nil
	}

	var state struct {
		Seq        int                  `json:"seq"`
		Checkpoint *campaign.Checkpoint `json:"checkpoint"`
	}
	if err := campaign.ReadSealedJSON(statePath, &state); err != nil {
		return fr, fmt.Errorf("fleet state: %w", err)
	}
	if state.Checkpoint == nil {
		return fr, fmt.Errorf("fleet state %s carries no checkpoint", statePath)
	}
	fr.leases, fr.shards = state.Seq, state.Checkpoint.Shard
	st, err := os.Stat(statePath)
	if err != nil {
		return fr, err
	}
	fr.stateBytes = st.Size()
	return fr, nil
}
