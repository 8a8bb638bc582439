package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"fidelity/internal/campaign"
	"fidelity/internal/distrib"
	"fidelity/internal/faultmodel"
)

// traceFleet is the traced pass of fleet-adaptive. Top-level spans: setup,
// reference (the same spec in process at Workers and at one worker, and an
// untraced fleet run as the end-to-end pass makes it, measured back to back
// in this process), fleet (one fleet run with worker telemetry, a sealed
// state file and the natural drain), wire (hand-driven
// lease / report / persist round trips) and layers.
func (b *bench) traceFleet(ctx context.Context, wl workload) (result, *tracer, error) {
	res := result{Workload: wl.name, Seed: b.seed, Size: sizeClass(b.quick), Traced: true}
	rec := newRecorder(perLayer)
	check := newChecker(b, wl)
	tr := newTracer(wl.name)
	root := tr.begin("trace")

	setup := tr.begin("setup")
	w, err := wl.spec.BuildWorkload()
	if err != nil {
		return res, tr, err
	}
	if _, err := faultmodel.Derive(b.cfg); err != nil {
		return res, tr, err
	}
	tr.end(setup)

	ref := tr.begin("reference")
	opts := wl.spec.Options()
	opts.Workers = b.workers
	study := func(name string, o campaign.StudyOptions) (float64, error) {
		s, _, err := b.tracedStudy(ctx, tr, check, w, name, o)
		return s, err
	}
	fleet := func(name string, o fleetOptions) (fleetRun, error) {
		id := tr.begin(name)
		o.tr = tr
		fr, err := runFleet(ctx, wl.spec, b.workers, b.outDir, o)
		tr.end(id)
		if err != nil {
			return fr, err
		}
		out, err := studyOutcome(fr.res)
		if err != nil {
			return fr, err
		}
		check.add(0, out)
		return fr, nil
	}
	// The first campaign of a process is the cold one; keep it out of the
	// ratios.
	if _, err := study("campaign.Study cold", opts); err != nil {
		return res, tr, err
	}
	local, err := study("campaign.Study", opts)
	if err != nil {
		return res, tr, err
	}
	local1 := local
	if b.workers > 1 {
		single := opts
		single.Workers = 1
		if local1, err = study("campaign.Study workers=1", single); err != nil {
			return res, tr, err
		}
	}
	plain, err := fleet("fleet campaign", fleetOptions{})
	if err != nil {
		return res, tr, err
	}
	tr.end(ref)

	// The natural drain is seconds long at the default lease TTL (an idle
	// worker sleeps a quarter of it, jittered), so the smoke sizes skip it.
	traced, err := fleet("fleet", fleetOptions{persist: true, telemetry: true, naturalDrain: !b.quick})
	if err != nil {
		return res, tr, err
	}

	rec.value("distrib.tax", plain.wall.Seconds()/local, 1,
		fmt.Sprintf("fleet time_to_ci_s %.4fs over in-process time_to_ci_s %.4fs of the same spec, back to back", plain.wall.Seconds(), local))
	rec.value("distrib.idle_frac", 1-local1/(float64(b.workers)*plain.wall.Seconds()), 1,
		fmt.Sprintf("1 - the campaign's work (Study at Workers=1, %.4fs) over %d workers x fleet wall %.4fs", local1, b.workers, plain.wall.Seconds()))
	rec.value("distrib.drain_s", traced.drain.Seconds(), 1, "result ready to last distrib.Work returning, workers left to poll")
	rec.value("distrib.state_bytes", float64(traced.stateBytes), 1, "sealed coordinator state at the end of the campaign")
	rec.value("distrib.leases", float64(traced.leases), 1, "")
	rec.value("distrib.expired", float64(traced.status.Expired), 1, "")
	rec.value("trace.overhead_frac", traced.wall.Seconds()/plain.wall.Seconds()-1, 1,
		fmt.Sprintf("fleet run with worker telemetry and a sealed state file %.4fs over one with neither %.4fs", traced.wall.Seconds(), plain.wall.Seconds()))

	if err := b.traceWire(tr, rec, wl, traced); err != nil {
		return res, tr, err
	}

	layers := tr.begin("layers")
	if err := b.probeCommon(tr, rec); err != nil {
		return res, tr, err
	}
	tr.end(layers)
	tr.end(root)

	res.Metrics = rec.metrics()
	check.counts(res.Metrics)
	check.finish(&res)
	return res, tr, nil
}

// traceWire drives POST /v1/lease and POST /v1/report by hand against a
// throw-away coordinator of the same spec, one request at a time. Each cycle
// leases shard 0, heartbeats a checkpoint, and hands the lease back with a
// final report of an unfinished shard, so the next cycle's lease is a
// re-issue that carries the resume state — all three persist the sealed
// state file. The bodies are a shard checkpoint and the merged worker
// telemetry taken from the fleet run just made.
func (b *bench) traceWire(tr *tracer, rec *recorder, wl workload, fr fleetRun) (err error) {
	wire := tr.begin("wire")
	dir, err := os.MkdirTemp(b.outDir, "wire-")
	if err != nil {
		return err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	coord, err := distrib.NewCoordinator(distrib.CoordinatorOptions{Spec: wl.spec, StatePath: filepath.Join(dir, "state.json")})
	if err != nil {
		return err
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	client := srv.Client()

	// Shard 0's collected checkpoint, rewound to the middle of its last
	// round: full-size tallies and history, but neither done nor parked.
	body := fr.shards[0]
	body.Done = false
	body.Cursor = campaign.Cursor{}
	if a := body.Adaptive; a != nil {
		rewound := *a
		rewound.Final = false
		rewound.Round = max(0, len(a.History)-1)
		body.Adaptive = &rewound
	}
	snap := fr.status.Telemetry
	const worker = "bench-wire"

	var leaseUS, reportUS []float64
	var reportBytes int
	n := b.count(512)
	for i := 0; i < n; i++ {
		var lr distrib.LeaseReply
		d, _, err := postJSON(tr, client, srv.URL, "/v1/lease", distrib.LeaseRequest{Worker: worker}, &lr)
		if err != nil {
			return err
		}
		if lr.Lease == nil {
			return fmt.Errorf("wire cycle %d: no lease granted: %+v", i, lr)
		}
		leaseUS = append(leaseUS, d)

		// Advance the checkpoint so the coordinator persists it, as it does
		// for a heartbeat that carries progress.
		body.Index = lr.Lease.Shard
		body.Experiments++
		var rr distrib.ReportReply
		req := distrib.ReportRequest{Worker: worker, LeaseID: lr.Lease.ID, Shard: body, Telemetry: &snap}
		d, size, err := postJSON(tr, client, srv.URL, "/v1/report", req, &rr)
		if err != nil {
			return err
		}
		if !rr.OK {
			return fmt.Errorf("wire cycle %d: heartbeat refused: %+v", i, rr)
		}
		reportUS = append(reportUS, d)
		reportBytes = size

		req.Final = true
		if _, _, err := postJSON(tr, client, srv.URL, "/v1/report", req, &rr); err != nil {
			return err
		}
		if !rr.OK {
			return fmt.Errorf("wire cycle %d: hand-back refused: %+v", i, rr)
		}
	}
	rec.samples("distrib.lease_rtt_us_p50", leaseUS, "POST /v1/lease: grant + persist, loopback")
	rec.value("distrib.lease_rtt_us_p95", percentile(leaseUS, 95), len(leaseUS), "95th percentile of the same requests")
	rec.samples("distrib.report_rtt_us_p50", reportUS, "POST /v1/report heartbeat carrying progress: digest check + persist, loopback")
	rec.value("distrib.report_rtt_us_p95", percentile(reportUS, 95), len(reportUS), "95th percentile of the same requests")
	rec.value("distrib.report_bytes", float64(reportBytes), 1, "heartbeat body: shard checkpoint + merged worker telemetry")

	ms, err := tr.each("distrib.Coordinator.PersistNow", b.count(64), 1e3, coord.PersistNow)
	if err != nil {
		return err
	}
	rec.samples("distrib.persist_ms_p50", ms, "Coordinator.PersistNow: seal + fsync + rename")
	tr.end(wire)
	return nil
}

// postJSON sends one digest-carrying JSON request the way a worker does and
// decodes the reply, inside a span. It returns the round trip in
// microseconds and the request body size.
func postJSON(tr *tracer, client *http.Client, base, path string, in, out any) (us float64, size int, err error) {
	blob, err := json.Marshal(in)
	if err != nil {
		return 0, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(blob))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(distrib.DigestHeader, hexSHA256(blob))

	id := tr.begin("POST " + path)
	resp, err := client.Do(req)
	var reply []byte
	if err == nil {
		reply, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	us = float64(tr.end(id).Nanoseconds()) / 1e3
	if err != nil {
		return us, len(blob), err
	}
	if resp.StatusCode != http.StatusOK {
		return us, len(blob), fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(reply))
	}
	return us, len(blob), json.Unmarshal(reply, out)
}
