// Command perfbench is the repository benchmark: it generates its inputs
// from a seed, drives the program end to end on one workload, checks every
// answer against a sequential oracle, and prints every metric by name with
// its unit. With -trace 1 it instead replays each job's stages in process,
// wrapping every call into a layer in a span, and prints per-layer metrics.
//
// Run it from the repository root through run.sh, which builds it and
// dmgm-serve from source:
//
//	bash perfbench/run.sh --workload warm-ref --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --selfcheck
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is the full
// report: sample counts, ratio bases, which counts repeat exactly, and the
// input and host provenance.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/graph"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	window   time.Duration // the measured window (--seconds)
	trace    bool
	serveBin string
	outDir   string
	segments int // measured segments per run, each set up fresh; setup_s is the set-ups' median
}

func main() { os.Exit(run()) }

func run() int {
	var (
		cfg       config
		seconds   = flag.Int("seconds", 20, "length of the measured window, seconds")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced replay and per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload briefly in both modes and check the output shape")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.StringVar(&cfg.serveBin, "serve-bin", ".bench_build/bin/dmgm-serve", "dmgm-serve binary to drive")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for reports, span files and server logs")
	flag.Parse()
	cfg.window = time.Duration(*seconds) * time.Second
	cfg.trace = *trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if *selfcheck {
		if err := selfCheck(ctx, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: selfcheck: %v\n", err)
			return 1
		}
		fmt.Println("selfcheck ok")
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := res.emit(os.Stdout, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// runWorkload runs one workload in the configured mode.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q: want %s", cfg.workload, strings.Join(workloadNames(), " | "))
	}
	if cfg.trace {
		cfg.segments = 1
	} else if cfg.segments == 0 {
		cfg.segments = endToEndSegments
	}
	res := newResult(cfg)
	steal0, total0, stealErr := cpuTimes()
	if err := w.run(ctx, cfg, res); err != nil {
		return nil, err
	}
	if stealErr != nil {
		res.note("host steal unknown: %v", stealErr)
	} else {
		res.measureSteal(steal0, total0)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// selfCheck runs every workload for a second in both modes and checks that
// each answer was correct and each catalogued metric was printed.
func selfCheck(ctx context.Context, cfg config) error {
	cfg.window = time.Second
	cfg.segments = 1
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg.workload, cfg.trace = name, trace
			res, err := runWorkload(ctx, cfg)
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", name, trace, err)
			}
			if res.failed > 0 || res.attempted == 0 {
				return fmt.Errorf("%s trace=%v: %d of %d ops failed: %v", name, trace, res.failed, res.attempted, res.errs)
			}
			for _, m := range catalogue(trace) {
				if _, ok := res.metrics[m.name]; !ok {
					return fmt.Errorf("%s trace=%v: metric %s not measured", name, trace, m.name)
				}
			}
			fmt.Fprintf(os.Stderr, "selfcheck: %s trace=%v: %d ops ok\n", name, trace, res.attempted)
		}
	}
	return nil
}

// metricDef is one catalogued metric. BENCHMARK.json lists the same names,
// units and directions; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	// kind is time | size | ratio | count-exact | count-spread. An exact
	// count is fixed by the seed; a spread count depends on message
	// interleaving and differs between identical runs.
	kind string
}

var endToEnd = []metricDef{
	{"jobs_per_s", "1/s", "higher", "time"},
	{"job_p50_ms", "ms", "lower", "time"},
	{"job_p90_ms", "ms", "lower", "time"},
	{"setup_s", "s", "lower", "time"},
	{"peak_rss_mb", "MB", "lower", "size"},
	{"colors_mean", "colors", "lower", "count-spread"},
}

var perLayer = []metricDef{
	{"graph.read_text_ms", "ms", "lower", "time"},
	{"graph.fingerprint_ms", "ms", "lower", "time"},
	{"graph.text_bytes", "bytes", "lower", "count-exact"},
	{"graph.read_dmgb_ms", "ms", "lower", "time"},
	{"ingest.upload_ms", "ms", "lower", "time"},
	{"ingest.store_hit_ratio", "ratio", "higher", "ratio"},
	{"partition.multilevel_ms", "ms", "lower", "time"},
	{"partition.multilevel_alloc_mb", "MB", "lower", "size"},
	{"partition.cut_ratio", "ratio", "lower", "count-exact"},
	{"dgraph.distribute_ms", "ms", "lower", "time"},
	{"dgraph.distribute_alloc_mb", "MB", "lower", "size"},
	{"dgraph.ghosts", "count", "lower", "count-exact"},
	{"matching.kernel_ms", "ms", "lower", "time"},
	{"matching.outer_iters", "count", "lower", "count-spread"},
	{"matching.gather_ms", "ms", "lower", "time"},
	{"matching.verify_ms", "ms", "lower", "time"},
	{"matching.format_ms", "ms", "lower", "time"},
	{"matching.result_bytes", "bytes", "lower", "count-exact"},
	{"coloring.kernel_ms", "ms", "lower", "time"},
	{"coloring.rounds", "count", "lower", "count-spread"},
	{"coloring.conflict_ratio", "ratio", "lower", "count-spread"},
	{"coloring.gather_ms", "ms", "lower", "time"},
	{"coloring.verify_ms", "ms", "lower", "time"},
	{"coloring.format_ms", "ms", "lower", "time"},
	{"mpi.match_msgs", "count", "lower", "count-spread"},
	{"mpi.match_bytes", "bytes", "lower", "count-spread"},
	{"mpi.color_msgs", "count", "lower", "count-spread"},
	{"mpi.color_bytes", "bytes", "lower", "count-spread"},
	{"mpi.bytes_per_msg", "bytes", "higher", "count-spread"},
	{"mpi.allgather_ms", "ms", "lower", "time"},
	{"mpi.run_self_ms", "ms", "lower", "time"},
	{"mpi.tcp_setup_ms", "ms", "lower", "time"},
	{"mpi.bundling_msg_ratio", "ratio", "higher", "count-spread"},
	{"mpi.bundling_wall_ratio", "ratio", "higher", "time"},
	{"service.decode_request_ms", "ms", "lower", "time"},
	{"service.decode_inline_request_ms", "ms", "lower", "time"},
	{"service.encode_response_ms", "ms", "lower", "time"},
	{"service.run_ms_p50", "ms", "lower", "time"},
	{"service.queue_wait_ms_p50", "ms", "lower", "time"},
	{"service.http_overhead_ms", "ms", "lower", "time"},
	{"service.unattributed_ms", "ms", "lower", "time"},
	{"service.cache_hit_ratio", "ratio", "higher", "ratio"},
	{"service.partition_hit_ratio", "ratio", "higher", "ratio"},
	{"service.pool_reuse_ratio", "ratio", "higher", "ratio"},
	{"service.jobs_rejected", "count", "lower", "count-spread"},
	{"trace.job_p50_ms", "ms", "lower", "time"},
	{"trace.blocking_ms", "ms", "lower", "time"},
	{"trace.unattributed_ms", "ms", "lower", "time"},
}

func catalogue(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// measured is one metric's value with what it rests on.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Kind    string  `json:"kind"`
	// Base is a ratio's numerator/denominator, or a spread count's range.
	Base string `json:"base,omitempty"`
	// Source says where the samples came from: window (the timed window),
	// warmup (the replay's cache-filling jobs), probe (serial calls made
	// only to time a stage this workload's jobs skip) or setup.
	Source string `json:"source,omitempty"`
}

// input records one generated input, so runs on different inputs are never
// compared by accident.
type input struct {
	Name        string `json:"name"`
	Spec        string `json:"spec"`
	Fingerprint string `json:"fingerprint"`
	Vertices    int    `json:"vertices"`
	Edges       int64  `json:"edges"`
	MaxDegree   int    `json:"max_degree"`
}

type provenance struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Segments   int     `json:"segments"`
	Inputs     []input `json:"inputs"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Platform   string  `json:"platform"`
	Hostname   string  `json:"hostname"`
	// HostSteal is the share of the host's CPU time the hypervisor gave to
	// other guests during the run: a run with a high share measured a
	// contended machine, not the program.
	HostSteal float64 `json:"host_steal_ratio"`
}

// result accumulates one run's outcome.
type result struct {
	prov      provenance
	metrics   map[string]measured
	attempted int
	failed    int
	errs      []string
	notes     []string
	spans     []span
}

func newResult(cfg config) *result {
	return &result{
		prov: provenance{
			Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Trace: cfg.trace,
			Segments: cfg.segments, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH, Hostname: hostname(),
		},
		metrics: map[string]measured{},
	}
}

// measureSteal records the host's steal share since cpuTimes read steal0
// and total0.
func (r *result) measureSteal(steal0, total0 uint64) {
	steal, total, err := cpuTimes()
	if err != nil {
		r.note("host steal unknown: %v", err)
		return
	}
	if total > total0 {
		r.prov.HostSteal = float64(steal-steal0) / float64(total-total0)
	}
}

func (r *result) input(name, spec string, g *graph.Graph, fp string) {
	r.prov.Inputs = append(r.prov.Inputs, input{Name: name, Spec: spec, Fingerprint: fp,
		Vertices: g.NumVertices(), Edges: g.NumEdges(), MaxDegree: g.MaxDegree()})
}

// set records a metric; the unit and kind come from the catalogue.
func (r *result) set(name string, value float64, samples int, source string) {
	r.setBase(name, value, samples, source, "")
}

func (r *result) setBase(name string, value float64, samples int, source, base string) {
	def, ok := lookupDef(name)
	if !ok {
		panic("perfbench: metric " + name + " is not catalogued")
	}
	r.metrics[name] = measured{Value: value, Unit: def.unit, Samples: samples, Kind: def.kind, Base: base, Source: source}
}

func (r *result) setRatio(name string, q ratio, source string) {
	r.setBase(name, q.value(), int(q.den), source, q.base())
}

func lookupDef(name string) (metricDef, bool) {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// op records one attempted operation; err marks it failed (a refused or
// failed request, or a wrong answer).
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 10 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

// ops records a closed loop's ops.
func (r *result) ops(st *loopStats) {
	for _, err := range st.errs {
		r.op(err)
	}
	for i := 0; i < st.attempted-st.failed; i++ {
		r.op(nil)
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// emit prints the report line and the result line, and writes the report
// and a traced run's spans under the output directory.
func (r *result) emit(out *os.File, cfg config) error {
	defs := catalogue(cfg.trace)
	final := map[string]map[string]any{}
	// The report keeps everything measured: a traced run's own end-to-end
	// figures show what tracing costs.
	full := map[string]measured{}
	for name, m := range r.metrics {
		full[name] = m
	}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		if !ok {
			m = measured{Unit: d.unit, Kind: d.kind, Source: "not on this workload's path"}
			full[d.name] = m
		}
		final[d.name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	errorRate := 0.0
	if r.attempted > 0 {
		errorRate = float64(r.failed) / float64(r.attempted)
	}
	report := map[string]any{
		"provenance": r.prov,
		"metrics":    full,
		"error_rate": map[string]any{"value": errorRate, "base": fmt.Sprintf("%d/%d", r.failed, r.attempted)},
		"errors":     r.errs,
		"notes":      r.notes,
	}
	line := map[string]any{
		"correct":   r.failed == 0 && r.attempted > 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   final,
	}
	rep, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		return err
	}
	fin, err := json.Marshal(line)
	if err != nil {
		return err
	}
	stem := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, boolInt(cfg.trace)))
	if err := os.WriteFile(stem+".report.json", rep, 0o644); err != nil {
		return err
	}
	if cfg.trace {
		sp, err := json.Marshal(r.spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(stem+".spans.json", sp, 0o644); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(out, "%s\n%s\n", rep, fin); err != nil {
		return err
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hostname names the host, for provenance.
func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "unknown"
	}
	return h
}
