package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
)

// serveMode picks one of the two workloads driven through dmgm-serve.
type serveMode int

const (
	warmRef serveMode = iota
	coldRef
)

const (
	serveCallers = 2 // closed-loop callers, matching dmgm-serve's default 2 workers
	serveRanks   = 4
	erN, erM     = 20000, 80000
)

// serveRun holds one serve workload's inputs and per-run state.
type serveRun struct {
	cfg    config
	mode   serveMode
	g      *graph.Graph
	fp     string
	text   []byte // the graph in the text edge-list format, for the probes
	or     *oracle
	bodies [][]byte // warm-ref: the eight requests, encoded once
	ref    string
	next   atomic.Int64 // op index; shared by warm-ups and segments so cold seeds never repeat

	mu     sync.Mutex // guards the window's per-op records below
	colors []float64
	runMs  []float64 // elapsed_seconds of answers the server computed (not cached)
}

func runServe(ctx context.Context, cfg config, mode serveMode, res *result) error {
	g, err := gen.ErdosRenyi(erN, erM, true, cfg.seed)
	if err != nil {
		return err
	}
	sr := &serveRun{cfg: cfg, mode: mode, g: g, fp: graph.Fingerprint(g)}
	res.input("graph", fmt.Sprintf("gen.ErdosRenyi(n=%d, m=%d, weighted=true, seed=%d)", erN, erM, cfg.seed), g, sr.fp)
	if sr.or, err = newOracle(g); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := graph.WriteText(&buf, g); err != nil {
		return err
	}
	sr.text = buf.Bytes()
	if cfg.trace {
		return sr.traced(ctx, res)
	}

	// Each segment starts a fresh server, sets it up and measures its share
	// of the window, so the set-ups are spread over the run like the ops.
	var setups, rss []float64
	var segs []*loopStats
	for i := 0; i < cfg.segments; i++ {
		err := sr.withServer(ctx, i, &setups, func(srv *server, _ float64) error {
			segs = append(segs, closedLoop(ctx, serveCallers, cfg.window/time.Duration(cfg.segments), &sr.next,
				func(k int) (time.Duration, error) { return sr.op(ctx, srv, k, true) }))
			mb, err := srv.peakRSSMB()
			rss = append(rss, mb)
			return err
		})
		if err != nil {
			return err
		}
	}
	recordSegments(res, segs)
	setupMedian(res, setups)
	res.setBase("peak_rss_mb", median(rss), len(rss), "window", fmt.Sprintf("per segment %.1f", rss))
	res.set("colors_mean", mean(sr.colors), len(sr.colors), "window")
	return nil
}

// withServer starts set-up i's server, sets it up, appends the set-up's
// wall time to setups, runs fn on the server and stops it.
func (sr *serveRun) withServer(ctx context.Context, i int, setups *[]float64, fn func(srv *server, uploadMs float64) error) error {
	start := time.Now()
	logPath := filepath.Join(sr.cfg.outDir, fmt.Sprintf("%s-seed%d-serve%d.log", sr.cfg.workload, sr.cfg.seed, i))
	srv, err := startServer(ctx, sr.cfg.serveBin, logPath)
	if err != nil {
		return err
	}
	defer srv.stop()
	uploadMs, err := sr.setup(ctx, srv)
	if err != nil {
		return fmt.Errorf("set-up %d: %w", i, err)
	}
	*setups = append(*setups, time.Since(start).Seconds())
	return fn(srv, uploadMs)
}

// traced is a serve workload's traced run: one set-up, the service's own
// view of half the window from /metrics deltas and the answers, then an
// in-process replay of the stages for the other half, then the TCP probe.
func (sr *serveRun) traced(ctx context.Context, res *result) error {
	window := sr.cfg.window / 2
	var setups []float64
	err := sr.withServer(ctx, 0, &setups, func(srv *server, uploadMs float64) error {
		before, err := srv.client.Metrics(ctx)
		if err != nil {
			return err
		}
		st := closedLoop(ctx, serveCallers, window, &sr.next, func(k int) (time.Duration, error) {
			return sr.op(ctx, srv, k, true)
		})
		after, err := srv.client.Metrics(ctx)
		if err != nil {
			return err
		}
		recordSegments(res, []*loopStats{st})
		sr.serviceMetrics(res, st, before, after)
		res.set("ingest.upload_ms", uploadMs, 1, "setup")
		return nil
	})
	if err != nil {
		return err
	}
	rp := newReplayer(sr.g, sr.or, sr.text, res)
	rp.body = sr.body
	if err := rp.replay(ctx, serveCallers, sr.warmJobs(), sr.mode == coldRef, sr.cfg.window-window); err != nil {
		return err
	}
	rp.finish(res)
	if run := res.metrics["service.run_ms_p50"]; run.Samples > 0 {
		res.set("service.unattributed_ms", run.Value-rp.runP50, run.Samples, "window")
		res.note("the replay's run stages cover %.1f of %.1f ms of service.run_ms_p50 (%.0f%%); %.1f ms unattributed",
			rp.runP50, run.Value, 100*rp.runP50/run.Value, run.Value-rp.runP50)
	}
	err = tcpProbe(sr.cfg, rp.tr, res)
	res.spans = rp.tr.spans
	return err
}

// request builds the job request for op k.
func (sr *serveRun) request(k int) service.Request {
	j := jobAt(k, sr.cfg.seed, sr.mode == coldRef)
	return service.Request{Algorithm: j.algo, Ranks: serveRanks, Partition: "multilevel", Seed: j.seed,
		GraphRef: sr.ref, NoCache: sr.mode == warmRef}
}

// body returns op k's encoded request. warm-ref encodes its eight
// requests once, before any timing; a cold-ref request is a few hundred
// bytes and is encoded per op.
func (sr *serveRun) body(k int) ([]byte, error) {
	if sr.mode == coldRef {
		return json.Marshal(sr.request(k))
	}
	return sr.bodies[k%len(sr.bodies)], nil
}

// setup brings a fresh server to the state the window measures: the graph
// uploaded, and every request of warm-ref's repeating sequence (or a few
// fresh cold-ref jobs) run once, which for warm-ref fills the partition
// cache. It returns the upload's wall time in ms.
func (sr *serveRun) setup(ctx context.Context, srv *server) (float64, error) {
	start := time.Now()
	ref, _, err := srv.client.UploadGraph(ctx, sr.g, client.UploadOptions{})
	if err != nil {
		return 0, fmt.Errorf("upload: %w", err)
	}
	uploadMs := msSince(start)
	if ref != sr.fp {
		return 0, fmt.Errorf("upload answered graph_ref %s, want the fingerprint %s", ref, sr.fp)
	}
	sr.ref = ref
	sr.bodies = sr.bodies[:0]
	for k := 0; k < 8; k++ {
		b, err := json.Marshal(sr.request(k))
		if err != nil {
			return 0, err
		}
		sr.bodies = append(sr.bodies, b)
	}
	warm := sr.warmJobs()
	for i := 0; i < warm; i++ {
		if _, err := sr.op(ctx, srv, int(sr.next.Add(1)-1), false); err != nil {
			return 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return uploadMs, nil
}

// warmJobs is the number of warm-up jobs of a set-up: the repeating
// sequence once, or for cold-ref two fresh jobs of each kind.
func (sr *serveRun) warmJobs() int {
	if sr.mode == coldRef {
		return 4
	}
	return 8
}

// op submits job k and checks the answer; only the request is timed.
func (sr *serveRun) op(ctx context.Context, srv *server, k int, record bool) (time.Duration, error) {
	body, err := sr.body(k)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := srv.submit(ctx, body)
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	j := jobAt(k, sr.cfg.seed, sr.mode == coldRef)
	if resp.Algorithm != j.algo || resp.Fingerprint != sr.fp {
		return lat, fmt.Errorf("answer for %s on %s, asked %s on %s", resp.Algorithm, resp.Fingerprint, j.algo, sr.fp)
	}
	if j.algo == algoMatch {
		err = sr.or.checkMatchText(resp.Result, resp.Weight, resp.Cardinality)
	} else {
		err = sr.or.checkColorText(resp.Result, resp.Colors)
	}
	if err != nil || !record {
		return lat, err
	}
	sr.mu.Lock()
	if j.algo == algoColor {
		sr.colors = append(sr.colors, float64(resp.Colors))
	}
	if !resp.Cached {
		sr.runMs = append(sr.runMs, resp.ElapsedSeconds*1000)
	}
	sr.mu.Unlock()
	return lat, nil
}

// serviceMetrics derives the service layer's per-layer metrics from the
// window's answers and the /metrics counters scraped around it.
func (sr *serveRun) serviceMetrics(res *result, st *loopStats, before, after *obs.MetricsSnapshot) {
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	run := median(sr.runMs)
	res.set("service.run_ms_p50", run, len(sr.runMs), "window")
	qw := histDelta(after.Histograms["service.queue_wait_ms"], before.Histograms["service.queue_wait_ms"])
	res.set("service.queue_wait_ms_p50", histQuantile(qw, 0.5), int(qw.Count), "window")
	// Without uncached answers there is no server run to subtract, and the
	// whole client latency is not HTTP overhead: leave it unmeasured.
	if len(sr.runMs) > 0 {
		res.set("service.http_overhead_ms", median(st.lats)-run, len(st.lats), "window")
	} else {
		res.note("service.http_overhead_ms unmeasured: no answer in the window was computed, so there is no server run to subtract")
	}
	hits, misses := delta("service.cache_hits"), delta("service.cache_misses")
	res.setRatio("service.cache_hit_ratio", ratio{hits, hits + misses}, "window")
	ph, pm := delta("service.partition_cache_hits"), delta("service.partition_cache_misses")
	res.setRatio("service.partition_hit_ratio", ratio{ph, ph + pm}, "window")
	reused, created := delta("service.pool_worlds_reused"), delta("service.pool_worlds_created")
	res.setRatio("service.pool_reuse_ratio", ratio{reused, reused + created}, "window")
	res.set("service.jobs_rejected", float64(delta("service.jobs_rejected")), st.attempted, "window")
	sh, sm := delta("ingest.store_hits"), delta("ingest.store_misses")
	res.setRatio("ingest.store_hit_ratio", ratio{sh, sh + sm}, "window")
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
