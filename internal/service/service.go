package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/dmgm"
	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/service/ingest"
)

// Config sizes one Server. The zero value is usable: every field has a
// production-sane default.
type Config struct {
	// QueueLen bounds the admission queue; a submission arriving with the
	// queue full is shed with 429 + Retry-After (default 32).
	QueueLen int
	// Workers is the number of jobs executed concurrently (default 2).
	// Each worker drives one mpi world of Request.Ranks goroutine ranks, so
	// the process runs up to Workers×Ranks rank goroutines at peak.
	Workers int
	// DefaultTimeout caps a job's queue wait plus run time; requests may
	// shorten it per job, never extend it (default 2 minutes).
	DefaultTimeout time.Duration
	// WorldDeadline is the watchdog on pooled worlds — the backstop against
	// a wedged algorithm outliving every job deadline (default 10 minutes).
	WorldDeadline time.Duration
	// CacheEntries bounds the LRU result cache (default 128; negative
	// disables caching).
	CacheEntries int
	// MaxRanks bounds Request.Ranks (default 64).
	MaxRanks int
	// MaxBodyBytes bounds a request body, inline graph included
	// (default 256 MiB).
	MaxBodyBytes int64
	// AllowGraphPaths permits graph_path requests, which read daemon-local
	// files. Leave false for anything but a trusted-caller deployment.
	AllowGraphPaths bool
	// StoreBytes bounds the content-addressed graph store (default 512 MiB).
	StoreBytes int64
	// StoreDir, when set, persists every deposited graph's canonical DMGB
	// encoding under this directory (docs/PROTOCOL.md §7): refs survive both
	// memory eviction and daemon restarts, rehydrated lazily on first use.
	// Empty keeps the store memory-only, the pre-persistence behavior.
	StoreDir string
	// StoreDiskBytes bounds the spill directory; least recently used spill
	// files beyond it are deleted (default 4 GiB). Only meaningful with
	// StoreDir set.
	StoreDiskBytes int64
	// PartitionCacheEntries bounds the warm partition cache (default 64;
	// negative disables it).
	PartitionCacheEntries int
	// UploadTTL expires idle upload sessions (default 2 minutes).
	UploadTTL time.Duration
	// MaxUploadBytes bounds one upload session (default 1 GiB).
	MaxUploadBytes int64
	// MaxUploadSessions bounds concurrently open upload sessions
	// (default 64).
	MaxUploadSessions int
	// Policies carries the per-tenant admission budgets (weights, rate
	// limits, queue/concurrency/upload bounds — docs/PROTOCOL.md §8). nil
	// applies the permissive default policy to every tenant: weight 1, no
	// rate limit, queue bound QueueLen. Replaceable at runtime with
	// SetPolicies.
	Policies *TenantPolicies
	// MaxTenants bounds the distinct tenant queues the scheduler tracks
	// (default 64). Callers beyond the bound share the default tenant's
	// queue and budgets, so an attacker inventing header values cannot grow
	// server state without bound.
	MaxTenants int
	// Observer collects service metrics and per-job spans; nil runs with
	// metrics disabled (every instrument is a nil no-op).
	Observer *obs.Observer

	// OTLPEndpoint, when set, wires a continuous OTLP/HTTP pipeline into the
	// daemon (docs/PROTOCOL.md §9): the metrics registry is pushed every
	// OTLPInterval and every finished job's span tree is exported on
	// completion. Stop drains the exporter before returning.
	OTLPEndpoint string
	// OTLPInterval paces the periodic metrics push (default 10s).
	OTLPInterval time.Duration
	// OTLPDrainTimeout bounds how long Stop waits for queued telemetry to
	// flush; batches still pending after it are counted dropped (default 5s).
	OTLPDrainTimeout time.Duration
	// RunID labels the daemon's own telemetry stream (the dmgm.run resource
	// attribute of the periodic metrics push). Jobs do not use it: each job's
	// spans ride its own trace id.
	RunID string
	// DisableTracing turns per-job span recording off entirely: no lifecycle
	// spans, no per-job runtime observers, no trace retention. Trace ids are
	// still minted/propagated so the access log and X-DMGM-Trace header keep
	// working. Results are byte-identical either way (asserted by the
	// conformance tests).
	DisableTracing bool
	// TraceSlowMillis is the tail-capture threshold: a job slower than this
	// (or ending in error) retains its full span tree for
	// GET /v1/jobs/{id}/trace. 0 retains every job; negative disables
	// retention. The default (zero value) retains every job — the ring is
	// bounded, so this is cheap and the friendliest debugging default.
	TraceSlowMillis int64
	// TraceRing bounds the retained-trace ring (default 256; negative
	// disables retention).
	TraceRing int
	// RuntimeSpanCap is the per-rank span-ring capacity of each job's runtime
	// observer (default 2048). A long job keeps the tail of its phase spans.
	RuntimeSpanCap int
	// AccessLog, when set, receives one structured JSON line per job request:
	// trace id, tenant, status, queue wait, run time, cache disposition.
	AccessLog io.Writer
}

func (c *Config) fillDefaults() {
	if c.QueueLen == 0 {
		c.QueueLen = 32
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.WorldDeadline <= 0 {
		c.WorldDeadline = 10 * time.Minute
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.MaxRanks == 0 {
		c.MaxRanks = 64
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.StoreBytes == 0 {
		c.StoreBytes = 512 << 20
	}
	if c.StoreDiskBytes == 0 {
		c.StoreDiskBytes = 4 << 30
	}
	if c.PartitionCacheEntries == 0 {
		c.PartitionCacheEntries = 64
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.OTLPInterval <= 0 {
		c.OTLPInterval = 10 * time.Second
	}
	if c.OTLPDrainTimeout <= 0 {
		c.OTLPDrainTimeout = 5 * time.Second
	}
	if c.TraceRing == 0 {
		c.TraceRing = 256
	}
	if c.RuntimeSpanCap <= 0 {
		c.RuntimeSpanCap = 2048
	}
}

// job is one admitted submission moving through its tenant's queue.
type job struct {
	id     string
	tenant string
	tq     *tenantQueue
	req    *Request
	g      *graph.Graph
	fp     string
	key    string
	ctx    context.Context
	done   chan struct{} // closed exactly once, after resp/status are set

	// jt is the request's trace state. The handler owns it until enqueue,
	// the worker between dequeue and close(done) — see trace.go.
	jt         *jobTrace
	enqueuedAt time.Time

	resp   *Response
	status int
	errMsg string
}

// finish publishes the job's outcome and releases its waiter.
func (j *job) finish(status int, resp *Response, errMsg string) {
	j.status = status
	j.resp = resp
	j.errMsg = errMsg
	close(j.done)
}

// Server is the dmgm job service: per-tenant admission queues dispatched by
// a weighted deficit-round-robin scheduler in front of a fixed worker pool,
// a World pool underneath, and an LRU result cache in front of everything.
// Create with NewServer, expose Handler over HTTP, call Start, and
// Drain+Stop on the way out. All exported methods are safe for concurrent
// use once NewServer returns.
type Server struct {
	cfg    Config
	obsr   *obs.Observer
	pool   *worldPool
	cache  *resultCache
	store  *ingest.Store
	ingest *ingest.Manager
	parts  *partCache
	sched  *tenantSched

	stopOnce sync.Once
	pumpOnce sync.Once // pump shutdown + exporter drain, once
	draining atomic.Bool
	admitMu  sync.Mutex     // orders admissions against the drain flag flip
	workers  sync.WaitGroup // worker goroutines
	pending  sync.WaitGroup // admitted, unfinished jobs

	nextID    atomic.Int64
	inflightN atomic.Int64 // jobs executing right now (healthz; gauge-independent)

	// Tracing pipeline (trace.go). exporter/traces/accessLog are nil when the
	// respective feature is off; every use is nil-safe.
	exporter   *obs.OTLPExporter
	traces     *traceRing
	accessLog  *accessLogger
	startNanos atomic.Int64  // Start time, the cumulative-metrics window start
	pumpStop   chan struct{} // closes to stop the periodic metrics push
	pumpDone   chan struct{}

	// spanMu serializes per-job span recording: the driver tracer is a
	// single-goroutine structure and the workers are not.
	spanMu sync.Mutex

	// Instruments (nil-safe no-ops without an observer).
	submitted   *obs.Counter
	completed   *obs.Counter
	failed      *obs.Counter
	rejected    *obs.Counter
	drainRejs   *obs.Counter
	timeouts    *obs.Counter
	hits        *obs.Counter
	misses      *obs.Counter
	evictions   *obs.Counter
	partHits    *obs.Counter
	partMisses  *obs.Counter
	partEvicts  *obs.Counter
	queueDepth  *obs.Gauge
	inflight    *obs.Gauge
	cacheGauge  *obs.Gauge
	idleWorlds  *obs.Gauge
	drainGauge  *obs.Gauge
	tracesGauge *obs.Gauge
	latencyHist *obs.Histogram
	qwaitHist   *obs.Histogram
	runHist     *obs.Histogram
}

// NewServer builds a server from cfg. Call Start before serving traffic.
// The only failure mode is an unusable StoreDir (unreadable, uncreatable);
// without one, NewServer always succeeds.
func NewServer(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	reg := cfg.Observer.Registry()
	s := &Server{
		cfg:   cfg,
		obsr:  cfg.Observer,
		pool:  newWorldPool(cfg.WorldDeadline, cfg.Workers*2, reg),
		cache: newResultCache(cfg.CacheEntries),
		store: ingest.NewStore(cfg.StoreBytes, reg),
		parts: newPartCache(cfg.PartitionCacheEntries),
		sched: newTenantSched(cfg.Policies, cfg.QueueLen, cfg.MaxTenants, reg),

		submitted:   reg.Counter("service.jobs_submitted"),
		completed:   reg.Counter("service.jobs_completed"),
		failed:      reg.Counter("service.jobs_failed"),
		rejected:    reg.Counter("service.jobs_rejected"),
		drainRejs:   reg.Counter("service.jobs_rejected_draining"),
		timeouts:    reg.Counter("service.jobs_timeout"),
		hits:        reg.Counter("service.cache_hits"),
		misses:      reg.Counter("service.cache_misses"),
		evictions:   reg.Counter("service.cache_evictions"),
		partHits:    reg.Counter("service.partition_cache_hits"),
		partMisses:  reg.Counter("service.partition_cache_misses"),
		partEvicts:  reg.Counter("service.partition_cache_evictions"),
		queueDepth:  reg.Gauge("service.queue_depth"),
		inflight:    reg.Gauge("service.inflight"),
		cacheGauge:  reg.Gauge("service.cache_entries"),
		idleWorlds:  reg.Gauge("service.pool_idle"),
		drainGauge:  reg.Gauge("service.draining"),
		tracesGauge: reg.Gauge("service.traces_retained"),
		latencyHist: reg.Histogram("service.job_latency_ms", obs.ExpBounds(1, 1<<22)),
		qwaitHist:   reg.Histogram("service.queue_wait_ms", obs.ExpBounds(1, 1<<22)),
		runHist:     reg.Histogram("service.run_ms", obs.ExpBounds(1, 1<<22)),

		traces:    newTraceRing(cfg.TraceRing),
		accessLog: newAccessLogger(cfg.AccessLog),
	}
	reg.Gauge("service.queue_cap").Set(int64(cfg.QueueLen))
	reg.Gauge("service.workers").Set(int64(cfg.Workers))
	if cfg.StoreDir != "" {
		// Enabled before any deposit can happen: the startup scan indexes
		// what a previous daemon run left behind, so old refs resolve and
		// re-uploads of spilled graphs short-circuit from the first request.
		if err := s.store.EnableSpill(ingest.SpillConfig{Dir: cfg.StoreDir, MaxBytes: cfg.StoreDiskBytes}); err != nil {
			return nil, fmt.Errorf("store dir %s: %w", cfg.StoreDir, err)
		}
	}
	s.ingest = ingest.NewManager(ingest.Config{
		TTL:         cfg.UploadTTL,
		MaxSessions: cfg.MaxUploadSessions,
		MaxBytes:    cfg.MaxUploadBytes,
		Store:       s.store,
		// Fingerprints with a cached result are answerable without the
		// graph bytes, so uploads of them short-circuit too.
		Known: s.cache.hasFingerprint,
		// Uploads pass the same per-tenant admission as jobs: one rate
		// token per session open, counted against the tenant's upload cap.
		Admit:    s.admitUpload,
		Registry: reg,
	})
	return s, nil
}

// SetPolicies replaces the per-tenant admission policies at runtime — the
// dmgm-serve SIGHUP reload path. Existing queues are re-bound in place:
// queued jobs stay queued, token-bucket levels carry over clamped to the
// new burst. Safe to call concurrently with traffic; nil resets every
// tenant to the permissive default policy.
func (s *Server) SetPolicies(p *TenantPolicies) {
	s.sched.setPolicies(p)
}

// admitUpload gates one upload-session open against the caller's tenant
// budgets (docs/PROTOCOL.md §8): draining refuses with 503, the open
// consumes one rate token, and the session occupies one slot of the
// tenant's upload cap until it settles. The returned release func gives the
// slot back; ingest calls it exactly once when the session leaves the
// uploading state.
func (s *Server) admitUpload(r *http.Request) (func(), *ingest.ChunkError) {
	tenant, ok := tenantFrom(r)
	if !ok {
		return nil, &ingest.ChunkError{Code: http.StatusBadRequest,
			Msg: fmt.Sprintf("invalid %s header %q: want %s", TenantHeader, r.Header.Get(TenantHeader), tenantNameRe)}
	}
	if s.draining.Load() {
		s.drainRejs.Inc()
		return nil, &ingest.ChunkError{Code: http.StatusServiceUnavailable,
			RetryAfter: retryAfterSeconds, Msg: "draining: not accepting uploads"}
	}
	tq := s.sched.tenantFor(tenant)
	if secs, ok := s.sched.takeToken(tq); !ok {
		tq.upRejected.Inc()
		return nil, &ingest.ChunkError{Code: http.StatusTooManyRequests, RetryAfter: secs,
			Msg: fmt.Sprintf("tenant %q over its rate limit: retry in %ds", tenant, secs)}
	}
	if !s.sched.addUpload(tq) {
		tq.upRejected.Inc()
		return nil, &ingest.ChunkError{Code: http.StatusTooManyRequests, RetryAfter: retryAfterSeconds,
			Msg: fmt.Sprintf("tenant %q is at its %d-session upload cap: finish or abort one", tenant, tq.pol.MaxUploads)}
	}
	return func() { s.sched.dropUpload(tq) }, nil
}

// otlpServiceName is the service.name resource attribute of every span and
// metric the daemon exports.
const otlpServiceName = "dmgm-serve"

// Start launches the worker pool and, when an OTLP endpoint is configured,
// the continuous telemetry pipeline: a periodic metrics push plus span
// export on every job completion.
func (s *Server) Start() {
	s.startNanos.Store(time.Now().UnixNano())
	if s.cfg.OTLPEndpoint != "" {
		s.exporter = obs.NewOTLPExporter(s.cfg.OTLPEndpoint, obs.OTLPOptions{
			Identity: obs.OTLPIdentity{RunID: s.cfg.RunID, Service: otlpServiceName},
			Registry: s.obsr.Registry(),
		})
		s.pumpStop = make(chan struct{})
		s.pumpDone = make(chan struct{})
		go s.metricsPump()
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.workers.Add(1)
		go s.workerLoop()
	}
}

// metricsPump pushes the registry to the OTLP endpoint every OTLPInterval,
// with one final push on shutdown so the last window is never lost.
func (s *Server) metricsPump() {
	defer close(s.pumpDone)
	t := time.NewTicker(s.cfg.OTLPInterval)
	defer t.Stop()
	push := func() {
		s.refreshGauges()
		s.exporter.ExportMetrics(s.obsr.Registry().Snapshot(), s.startNanos.Load())
	}
	for {
		select {
		case <-s.pumpStop:
			push()
			return
		case <-t.C:
			push()
		}
	}
}

// Drain stops admitting new jobs (submissions answer 503, health answers
// draining) and waits for every admitted job — queued or running — to
// finish, or for ctx to expire. It does not stop the workers; call Stop
// afterwards.
func (s *Server) Drain(ctx context.Context) error {
	// The admission lock orders the flag flip after every in-flight
	// admission's pending.Add — Wait never races a late Add.
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
	s.drainGauge.Set(1)
	done := make(chan struct{})
	go func() { s.pending.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
}

// Stop terminates the worker pool and drains the telemetry pipeline: the
// final metrics window is pushed and queued span batches get up to
// OTLPDrainTimeout to flush (batches still pending after it are counted
// dropped, never leaked — the obs.otlp_dropped counter reports them). Safe
// to call more than once; jobs still queued are abandoned (their waiters
// time out via job deadlines), so Drain first for a graceful exit.
func (s *Server) Stop() {
	s.stopOnce.Do(func() { s.sched.stop() })
	s.workers.Wait()
	s.ingest.Stop()
	s.pumpOnce.Do(func() {
		if s.exporter == nil {
			return
		}
		close(s.pumpStop)
		<-s.pumpDone
		s.exporter.Close(s.cfg.OTLPDrainTimeout) //nolint:errcheck // drop accounting covers the timeout case
	})
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the HTTP surface:
//
//	POST   /v1/jobs                      submit a job, wait for its result
//	GET    /v1/jobs/{id}/trace           retained span tree of a slow/error job
//	POST   /v1/uploads                   open a chunked upload session
//	PUT    /v1/uploads/{id}/chunks/{n}   send one chunk (idempotent)
//	GET    /v1/uploads/{id}              session status (resume point)
//	POST   /v1/uploads/{id}/complete     finalize, obtain the graph_ref
//	DELETE /v1/uploads/{id}              abort a session
//	GET    /healthz                      liveness JSON (200 ok / 503 draining)
//	GET    /metrics                      the metrics registry, canonical JSON
//	GET    /snapshot                     obs.LiveSnapshot (metrics only)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleSubmit)
	mux.HandleFunc("/v1/jobs/", s.handleJobTrace)
	s.ingest.RegisterRoutes(mux)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	return mux
}

// handleJobTrace serves GET /v1/jobs/{id}/trace from the retained-trace ring
// (docs/PROTOCOL.md §9). Only slow/error jobs are retained; everything else
// answers 404.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, verb, ok := strings.Cut(rest, "/")
	if !ok || verb != "trace" || id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, "unknown path %q: want /v1/jobs/{id}/trace", r.URL.Path)
		return
	}
	t, ok := s.traces.get(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			"no retained trace for job %q: only jobs over the slow threshold or ending in error are kept, bounded by the trace ring", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(t) //nolint:errcheck // response already committed
}

// LiveSnapshot adapts the service registry to the obs live-polling shape,
// so `dmgm-trace -watch` and the -http pipeline work against a daemon too.
func (s *Server) LiveSnapshot() *obs.LiveSnapshot {
	s.refreshGauges()
	return &obs.LiveSnapshot{
		CapturedUnixNanos: time.Now().UnixNano(),
		Metrics:           s.obsr.Registry().Snapshot(),
	}
}

// refreshGauges recomputes the sampled gauges a scrape observes.
func (s *Server) refreshGauges() {
	s.queueDepth.Set(int64(s.sched.totalQueued()))
	s.cacheGauge.Set(int64(s.cache.len()))
	s.idleWorlds.Set(int64(s.pool.idle()))
	s.tracesGauge.Set(int64(s.traces.len()))
}

// healthBody is the GET /healthz answer (docs/PROTOCOL.md §6): the drain
// state plus the load picture an orchestrator or operator triages from. The
// status code keeps the original contract — 200 while serving, 503 once
// draining — so probes that only look at the code are unaffected.
type healthBody struct {
	Status         string         `json:"status"` // "ok" | "draining"
	Workers        int            `json:"workers"`
	Inflight       int64          `json:"inflight"`
	QueueDepth     int            `json:"queue_depth"`
	Queues         map[string]int `json:"queues,omitempty"` // per-tenant queue depths
	IdleWorlds     int            `json:"idle_worlds"`
	TracesRetained int            `json:"traces_retained"`
	// Store snapshots both tiers of the graph store; the spill_* fields are
	// present only when a StoreDir is configured.
	Store ingest.StoreStats `json:"store"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	body := healthBody{
		Status:         "ok",
		Workers:        s.cfg.Workers,
		Inflight:       s.inflightN.Load(),
		QueueDepth:     s.sched.totalQueued(),
		Queues:         s.sched.depths(),
		IdleWorlds:     s.pool.idle(),
		TracesRetained: s.traces.len(),
		Store:          s.store.Stats(),
	}
	code := http.StatusOK
	if s.draining.Load() {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body) //nolint:errcheck // response already committed
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.refreshGauges()
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.obsr.Registry().Snapshot().CanonicalJSONIndent()) //nolint:errcheck // best-effort scrape
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.LiveSnapshot()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeError answers with the JSON error shape of docs/PROTOCOL.md §6.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)}) //nolint:errcheck // response already committed
}

// retryAfterSeconds is the backpressure hint on queue-full 429 and
// draining 503 answers: queues turn over in job-latency units, so a short
// fixed hint keeps rejected clients closely packed behind the current burst
// without thundering back. Rate-limit 429s derive their hint from the
// tenant's own token bucket instead (tenantSched.takeToken).
const retryAfterSeconds = 1

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// The trace identity exists before any decision: the caller's traceparent
	// is honored (or a trace id minted), the X-DMGM-Trace header goes out on
	// every answer including rejects, and every outcome logs one access line.
	jt := newJobTrace(r.Header.Get(TraceparentHeader), !s.cfg.DisableTracing)
	w.Header().Set(TraceHeader, jt.traceID)
	fail := func(status int, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		writeError(w, status, "%s", msg)
		s.finishTrace(jt, status, msg)
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
		s.drainRejs.Inc()
		fail(http.StatusServiceUnavailable, "draining: not accepting jobs")
		return
	}
	tenant, ok := tenantFrom(r)
	if !ok {
		fail(http.StatusBadRequest, "invalid %s header %q: want %s",
			TenantHeader, r.Header.Get(TenantHeader), tenantNameRe)
		return
	}
	jt.tenant = tenant
	tq := s.sched.tenantFor(tenant)
	s.submitted.Inc()
	tq.submitted.Inc()
	// Admission: the rate bucket gates ingress before any request work — a
	// tenant over its rate is shed before the body is even decoded, and the
	// Retry-After hint is when its own bucket next grants a token.
	admitTok := jt.begin(spanAdmit)
	if secs, ok := s.sched.takeToken(tq); !ok {
		jt.end(admitTok, 0)
		s.rejected.Inc()
		tq.rejected.Inc()
		tq.rejRate.Inc()
		w.Header().Set("Retry-After", fmt.Sprint(secs))
		fail(http.StatusTooManyRequests, "tenant %q over its rate limit: retry in %ds", tenant, secs)
		return
	}
	var req Request
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		jt.end(admitTok, 0)
		fail(http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if msg := req.normalize(s.cfg.MaxRanks); msg != "" {
		jt.end(admitTok, 0)
		fail(http.StatusBadRequest, "%s", msg)
		return
	}
	jt.end(admitTok, 0)
	jt.algo, jt.ranks = req.Algorithm, req.Ranks
	// Resolve: inline parse, store lookup, or path load.
	resolveTok := jt.begin(spanResolve)
	g, fp, status, err := s.loadGraph(&req, jt)
	if err != nil {
		jt.end(resolveTok, 0)
		fail(status, "loading graph: %v", err)
		return
	}
	jt.end(resolveTok, int64(g.NumVertices()))
	key := req.cacheKey(fp)
	id := fmt.Sprintf("job-%d", s.nextID.Add(1))
	jt.jobID = id
	if !req.NoCache {
		lookupStart := time.Now()
		if resp, ok := s.cache.get(key); ok {
			s.hits.Inc()
			jt.cache = cacheHit
			jt.observe(spanCacheHit, lookupStart, 0)
			resp.JobID = id
			resp.Tenant = tenant
			resp.Cached = true
			resp.TraceID = jt.traceID
			s.respondTraced(w, &resp, jt)
			s.finishTrace(jt, http.StatusOK, "")
			return
		}
		jt.cache = cacheMiss
	} else {
		jt.cache = cacheBypass
	}
	s.misses.Inc()

	ctx, cancel := context.WithTimeout(r.Context(), req.timeout(s.cfg.DefaultTimeout))
	defer cancel()
	j := &job{id: id, tenant: tenant, tq: tq, req: &req, g: g, fp: fp, key: key,
		ctx: ctx, done: make(chan struct{}), jt: jt}
	// Authoritative drain check: the early one above is a fast path, but a
	// drain beginning mid-request must still see either this job in pending
	// or this request rejected — never neither, for any tenant.
	s.admitMu.Lock()
	if s.draining.Load() {
		s.admitMu.Unlock()
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
		s.drainRejs.Inc()
		fail(http.StatusServiceUnavailable, "draining: not accepting jobs")
		return
	}
	s.pending.Add(1)
	s.admitMu.Unlock()
	j.enqueuedAt = time.Now()
	// From enqueue to <-j.done the worker owns j.jt (see trace.go); the
	// handler records nothing in between.
	if !s.sched.enqueue(tq, j) {
		s.pending.Done()
		s.rejected.Inc()
		tq.rejected.Inc()
		tq.rejQueue.Inc()
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
		fail(http.StatusTooManyRequests,
			"tenant %q queue full (%d jobs queued): retry later", tenant, tq.pol.MaxQueued)
		return
	}
	tq.admitted.Inc()
	<-j.done
	if j.status != http.StatusOK {
		fail(j.status, "%s", j.errMsg)
		return
	}
	j.resp.TraceID = jt.traceID
	s.respondTraced(w, j.resp, jt)
	s.finishTrace(jt, http.StatusOK, "")
}

func (s *Server) respond(w http.ResponseWriter, resp *Response) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		// The header is already out; nothing to repair mid-stream.
		return
	}
}

// respondTraced is respond under a serve.respond span — serialization and
// the first write of a (possibly large) result body.
func (s *Server) respondTraced(w http.ResponseWriter, resp *Response, jt *jobTrace) {
	tok := jt.begin(spanRespond)
	s.respond(w, resp)
	jt.end(tok, int64(len(resp.Result)))
}

// finishTrace closes the request's root span and settles its telemetry: the
// span tree is exported over OTLP, retained in the trace ring when the job
// was slow or failed, and summarized as one access-log line. Runs on the
// handler goroutine, after the worker's last jt write (<-j.done).
func (s *Server) finishTrace(jt *jobTrace, status int, errMsg string) {
	if jt == nil {
		return
	}
	jt.tr.End(jt.root)
	total := time.Since(jt.start)
	retained := false
	if jt.tr != nil && jt.jobID != "" && s.shouldRetain(status, total) {
		s.traces.add(jt.snapshot(status, errMsg, total))
		retained = s.traces != nil
	}
	if e := s.exporter; e != nil && jt.tr != nil {
		svcID := jt.identity(otlpServiceName, jt.parentSpan)
		e.ExportSpansFor(jt.tr.Spans(), svcID, 0)
		if len(jt.runtime) > 0 {
			runID := jt.identity(otlpServiceName, svcID.SpanID(obs.DriverRank, jt.runSeq))
			e.ExportSpansFor(jt.runtime, runID, 0)
		}
	}
	s.accessLog.log(&accessEntry{
		TimeUnixNano:    time.Now().UnixNano(),
		TraceID:         jt.traceID,
		JobID:           jt.jobID,
		Tenant:          jt.tenant,
		Algorithm:       jt.algo,
		Ranks:           jt.ranks,
		Status:          status,
		Error:           errMsg,
		Cache:           jt.cache,
		QueueWaitMillis: durMillis(jt.queueWait),
		RunMillis:       durMillis(jt.runDur),
		TotalMillis:     durMillis(total),
		TraceRetained:   retained,
	})
}

// shouldRetain decides tail-based capture: every error, plus anything over
// the slow threshold (0 = everything; negative disables retention).
func (s *Server) shouldRetain(status int, total time.Duration) bool {
	if s.cfg.TraceSlowMillis < 0 {
		return false
	}
	if status != http.StatusOK {
		return true
	}
	return total.Milliseconds() >= s.cfg.TraceSlowMillis
}

// loadGraph resolves the request's graph — inline, by reference, or
// daemon-local — returning the graph, its fingerprint, and on failure the
// HTTP status to answer with. A graph_ref rehydrated from the spill tier
// records a span under the request's resolve stage.
func (s *Server) loadGraph(req *Request, jt *jobTrace) (*graph.Graph, string, int, error) {
	switch {
	case req.Graph != "":
		g, err := graph.ReadText(strings.NewReader(req.Graph))
		if err != nil {
			return nil, "", http.StatusBadRequest, err
		}
		fp := graph.Fingerprint(g)
		// Inline graphs land in the store too, so the caller can switch to
		// graph_ref (the response fingerprint) and uploads of the same
		// content short-circuit.
		s.store.Put(fp, g)
		return g, fp, 0, nil
	case req.GraphRef != "":
		start := time.Now()
		g, rehydrated, ok := s.store.Resolve(req.GraphRef)
		if !ok {
			return nil, "", http.StatusNotFound,
				fmt.Errorf("unknown graph_ref %s (never uploaded, or evicted): upload the graph again", req.GraphRef)
		}
		if rehydrated {
			jt.observe(spanRehydrate, start, int64(g.NumVertices()))
		}
		return g, req.GraphRef, 0, nil
	default:
		if !s.cfg.AllowGraphPaths {
			return nil, "", http.StatusBadRequest,
				fmt.Errorf("graph_path is disabled on this server; send the graph inline or upload it")
		}
		// Daemon-local files stream through the store: decoded at most once
		// per content version, shared across concurrent jobs.
		g, fp, err := s.store.LoadPath(req.GraphPath)
		if err != nil {
			return nil, "", http.StatusBadRequest, err
		}
		return g, fp, 0, nil
	}
}

// workerLoop pulls dispatched jobs until Stop. The scheduler charges the
// job's tenant a running slot on dispatch; the worker releases it when the
// job leaves the worker, finished or shed.
func (s *Server) workerLoop() {
	defer s.workers.Done()
	for {
		j, tq, ok := s.sched.next()
		if !ok {
			return
		}
		s.noteQueueWait(j)
		if err := j.ctx.Err(); err != nil {
			// Expired while queued: never ran, shed cheaply.
			s.finishTimeout(j)
		} else {
			s.execute(j)
		}
		s.sched.release(tq)
	}
}

// noteQueueWait records the job's tenant-queue wait — the span, the global
// and per-tenant histograms, and the access-log summary field. Runs on the
// worker right after dispatch, before any jt write of the execute path.
func (s *Server) noteQueueWait(j *job) {
	wait := time.Since(j.enqueuedAt)
	j.jt.setQueueWait(wait)
	j.jt.observe(spanQueueWait, j.enqueuedAt, 0)
	s.qwaitHist.Observe(wait.Milliseconds())
	j.tq.qwait.Observe(wait.Milliseconds())
}

// finishTimeout resolves a job whose deadline fired.
func (s *Server) finishTimeout(j *job) {
	s.timeouts.Inc()
	j.finish(http.StatusGatewayTimeout, nil, "job deadline exceeded")
	s.pending.Done()
}

// execResult carries a finished run out of its goroutine, with the partition
// measurement the worker turns into a span (the run goroutine must never
// touch the jobTrace itself — on timeout the worker abandons it mid-flight).
type execResult struct {
	resp *Response
	part partMeasure
	err  error
}

// partMeasure is the partition stage's timing, handed from the run goroutine
// to the worker through the result channel.
type partMeasure struct {
	cached bool
	start  time.Time
	dur    time.Duration
}

// execute runs one job on a pooled world, enforcing the job deadline. On
// timeout the job resolves immediately; the abandoned run keeps the world
// until it finishes (the algorithms terminate in bounded rounds, and the
// pool's watchdog deadline is the backstop), after which the world is reset
// and recycled — or discarded if its ranks are genuinely wedged.
func (s *Server) execute(j *job) {
	start := time.Now()
	jt := j.jt
	poolTok := jt.begin(spanPoolAcquire)
	w, err := s.pool.get(j.req.Ranks)
	jt.end(poolTok, 0)
	if err != nil {
		s.failed.Inc()
		j.finish(http.StatusInternalServerError, nil, fmt.Sprintf("world: %v", err))
		s.pending.Done()
		return
	}
	// The job's own runtime observer: per-rank span rings the algorithms
	// record into, isolated per job so a pooled world never mixes two jobs'
	// spans. A timeout abandons the observer with the run — its spans are
	// simply never collected.
	var runObs *obs.Observer
	if !s.cfg.DisableTracing {
		runObs = obs.NewObserver(j.req.Ranks, s.cfg.RuntimeSpanCap)
		if err := w.SetObserver(runObs); err != nil {
			runObs = nil // not runnable-fresh; run untraced rather than fail
		}
	}
	s.inflight.Add(1)
	s.inflightN.Add(1)
	defer func() { s.inflight.Add(-1); s.inflightN.Add(-1) }()
	runStart := time.Now()
	resCh := make(chan execResult, 1)
	go func() {
		resp, part, err := s.runJob(w, j)
		resCh <- execResult{resp, part, err}
	}()
	select {
	case r := <-resCh:
		runDur := time.Since(runStart)
		jt.setRunDur(runDur)
		s.runHist.Observe(runDur.Milliseconds())
		j.tq.runh.Observe(runDur.Milliseconds())
		// Collect the run's per-rank spans before the world returns to the
		// pool (put detaches the observer).
		if runObs != nil && jt != nil {
			var spans []obs.Span
			for rank := 0; rank < j.req.Ranks; rank++ {
				spans = append(spans, runObs.Tracer(rank).Spans()...)
			}
			jt.runtime = spans
		}
		s.pool.put(w)
		elapsed := time.Since(start)
		s.observeJob(j, start, elapsed)
		if !r.part.start.IsZero() {
			name := spanPartCompute
			if r.part.cached {
				name = spanPartCached
			}
			jt.observeSpan(name, r.part.start, r.part.dur, int64(j.req.Ranks))
		}
		if jt != nil {
			jt.runSeq = jt.tr.ObserveSpan(spanRun, runStart.UnixNano(), runDur.Nanoseconds(), 0, jt.root)
		}
		if r.err != nil {
			s.failed.Inc()
			j.finish(http.StatusInternalServerError, nil, fmt.Sprintf("executing %s: %v", j.req.Algorithm, r.err))
			s.pending.Done()
			return
		}
		r.resp.JobID = j.id
		r.resp.ElapsedSeconds = elapsed.Seconds()
		depositTok := jt.begin(spanDeposit)
		// The cached copy carries no tenant: a hit may serve any tenant,
		// which stamps its own id on its copy.
		s.evictions.Add(int64(s.cache.put(j.key, *r.resp)))
		jt.end(depositTok, int64(len(r.resp.Result)))
		r.resp.Tenant = j.tenant
		s.completed.Inc()
		j.tq.completed.Inc()
		s.latencyHist.Observe(elapsed.Milliseconds())
		j.tq.lat.Observe(elapsed.Milliseconds())
		j.finish(http.StatusOK, r.resp, "")
		s.pending.Done()
	case <-j.ctx.Done():
		jt.setRunDur(time.Since(runStart))
		jt.observe(spanRunAbandon, runStart, 0)
		s.finishTimeout(j)
		// Recycle (or discard) the world once the abandoned run returns. The
		// abandoned run still holds the per-job observer; put resets and
		// detaches it with the world, and its spans are dropped with it.
		go func() {
			<-resCh
			s.pool.put(w)
		}()
	}
}

// observeJob records the per-job span on the driver tracer (serialized: the
// tracer is a single-goroutine structure).
func (s *Server) observeJob(j *job, start time.Time, elapsed time.Duration) {
	if s.obsr == nil {
		return
	}
	s.spanMu.Lock()
	s.obsr.Driver().Observe("job."+j.req.Algorithm, start, int64(j.g.NumVertices()))
	s.spanMu.Unlock()
}

// getPartition resolves the job's partition through the warm partition
// cache; a miss runs the requested partitioner and warms the cache. The key
// covers the full derivation (fingerprint, partitioner, ranks, and the seed
// unless the partitioner ignores it), and
// partitions are read-only downstream, so sharing one instance across
// concurrent jobs is safe.
func (s *Server) getPartition(j *job) (*partition.Partition, bool, error) {
	key := partitionKey(j.fp, j.req.Partition, j.req.Ranks, j.req.partitionSeed())
	if p, ok := s.parts.get(key); ok {
		s.partHits.Inc()
		return p, true, nil
	}
	s.partMisses.Inc()
	p, err := j.req.buildPartition(j.g)
	if err != nil {
		return nil, false, err
	}
	s.partEvicts.Add(int64(s.parts.put(key, p)))
	return p, false, nil
}

// runJob executes the algorithm on the given world — the same dmgm entry
// points the CLIs call, so a service job and a CLI run with equal inputs
// produce byte-identical results (asserted by the conformance tests).
func (s *Server) runJob(w *mpi.World, j *job) (*Response, partMeasure, error) {
	partStart := time.Now()
	part, partCached, err := s.getPartition(j)
	pm := partMeasure{cached: partCached, start: partStart, dur: time.Since(partStart)}
	if err != nil {
		return nil, pm, err
	}
	resp := &Response{
		Algorithm:   j.req.Algorithm,
		Ranks:       j.req.Ranks,
		Fingerprint: j.fp,
	}
	switch j.req.Algorithm {
	case AlgoMatch:
		opt := dmgm.MatchParallelOptions{}
		if j.req.NoBundle {
			opt.BundleBytes = 17 // one protocol record per message
		}
		res, err := dmgm.MatchParallelWorld(w, j.g, part, opt)
		if err != nil {
			return nil, pm, err
		}
		if err := res.Mates.VerifyMaximal(j.g); err != nil {
			return nil, pm, fmt.Errorf("result verification: %w", err)
		}
		var sb strings.Builder
		if err := matching.WriteMates(&sb, res.Mates); err != nil {
			return nil, pm, err
		}
		resp.Weight = res.Weight
		resp.Cardinality = res.Mates.Cardinality()
		resp.Messages = res.Messages
		resp.Bytes = res.Bytes
		resp.Result = sb.String()
	case AlgoColor:
		opt := dmgm.ColorParallelOptions{
			SuperstepSize: j.req.Superstep,
			Seed:          j.req.Seed,
		}
		switch j.req.Comm {
		case "neighbors":
			opt.CommMode = dmgm.CommNeighbors
		case "customized-all":
			opt.CommMode = dmgm.CommCustomizedAll
		case "broadcast":
			opt.CommMode = dmgm.CommBroadcast
		}
		var res *dmgm.ColorParallelResult
		var err error
		if j.req.Distance2 {
			res, err = dmgm.ColorParallelDistance2World(w, j.g, part, opt)
		} else {
			res, err = dmgm.ColorParallelWorld(w, j.g, part, opt)
		}
		if err != nil {
			return nil, pm, err
		}
		if j.req.Distance2 {
			err = coloring.VerifyDistance2(j.g, res.Colors)
		} else {
			err = res.Colors.Verify(j.g)
		}
		if err != nil {
			return nil, pm, fmt.Errorf("result verification: %w", err)
		}
		var sb strings.Builder
		if err := coloring.WriteColors(&sb, res.Colors); err != nil {
			return nil, pm, err
		}
		resp.Colors = res.NumColors
		resp.Rounds = res.Rounds
		resp.Conflicts = res.Conflicts
		resp.Messages = res.Messages
		resp.Bytes = res.Bytes
		resp.Result = sb.String()
	}
	return resp, pm, nil
}
