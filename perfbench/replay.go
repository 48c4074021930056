package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coloring"
	"repro/internal/dgraph"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/partition"
	"repro/internal/service"
)

// The traced run replays each job's stages in process, calling the layer
// functions in the order the program does — decode, fingerprint,
// partition, distribute, World.Run (kernel, then the result collectives,
// spanned per rank inside the benchmark's own closure), gather, verify,
// format — with a span around each call. The replay mirrors the service's
// partition cache: on a hit the partitioner is skipped, as the service
// skips it. Stages a workload's jobs never reach (the text and DMGB
// decoders, the fingerprint, an inline request's JSON decode) are timed by
// a few serial probe calls instead, so every layer reports on every
// workload.

// span is one timed call, recorded by the benchmark around a call into a
// layer. Spans of one job share its job index; probes have job -1, the
// TCP probe's solves -3 and its unbundled ablation solve -2.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Rank   int    `json:"rank"` // -1 for a span outside the ranks
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name string, job, rank, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Rank: rank, Start: now, End: -1})
	return id
}

// end closes span id and returns its duration in ms. Ending a closed span
// again changes nothing.
func (t *tracer) end(id int) float64 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	if s.End < 0 {
		s.End = now
	}
	return float64(s.End-s.Start) / 1e6
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// jobRecord is what one replayed job (or probe) measured.
type jobRecord struct {
	phase       string // probe | warmup | window
	algo        string
	wall        float64
	stages      map[string]float64 // blocking ms per stage
	allocMB     map[string]float64 // probes only
	msgs, bytes int64
	iters       int64
	rounds      int
	conflicts   int64
	ghosts      int64
	cut         float64
	resultBytes int
}

type partEntry struct {
	p   *partition.Partition
	cut float64
}

// replayer runs a workload's jobs through the layers in process.
type replayer struct {
	g    *graph.Graph
	fp   string
	text []byte
	or   *oracle
	res  *result
	tr   *tracer
	seed uint64

	// body returns job k's encoded request on the serve workloads; the
	// replay decodes it and encodes the answer as the service does.
	body func(k int) ([]byte, error)
	tcp  bool // the TCP probe: fresh TCP worlds per solve, block partition

	worlds chan *mpi.World // the in-process world pool, one per caller

	mu    sync.Mutex
	parts map[uint64]partEntry // partition-cache mirror, by seed
	recs  []*jobRecord
	ghost map[uint64]int64 // exact-count check: ghosts per partition seed

	runP50 float64 // p50 of the window's run-side stage sums, set by finish
}

func newReplayer(g *graph.Graph, or *oracle, text []byte, res *result) *replayer {
	return &replayer{g: g, fp: graph.Fingerprint(g), text: text, or: or, res: res,
		tr: &tracer{t0: time.Now()}, seed: res.prov.Seed,
		parts: map[uint64]partEntry{}, ghost: map[uint64]int64{}}
}

// replay runs the probes, warm warm-up jobs, then a closed loop of callers
// for dur, recording every job's answer as an op of the run.
func (rp *replayer) replay(ctx context.Context, callers, warm int, fresh bool, dur time.Duration) error {
	if err := rp.probes(); err != nil {
		return err
	}
	rp.worlds = make(chan *mpi.World, callers)
	for i := 0; i < callers; i++ {
		w, err := mpi.NewWorld(serveRanks, mpi.WithDeadline(time.Minute))
		if err != nil {
			return err
		}
		rp.worlds <- w
	}
	var next atomic.Int64
	for i := 0; i < warm; i++ {
		k := int(next.Add(1) - 1)
		rp.res.op(rp.job(k, jobAt(k, rp.seed, fresh), "warmup", 0))
	}
	st := closedLoop(ctx, callers, dur, &next, func(k int) (time.Duration, error) {
		start := time.Now()
		err := rp.job(k, jobAt(k, rp.seed, fresh), "window", 0)
		return time.Since(start), err
	})
	rp.res.ops(st)
	return nil
}

// probes times, serially, each stage a workload might skip, with the
// allocation volume of the partitioner and of distribute.
func (rp *replayer) probes() error {
	enc, err := graph.EncodeDMGB(rp.g)
	if err != nil {
		return err
	}
	inline, err := json.Marshal(service.Request{Algorithm: algoMatch, Ranks: serveRanks, Graph: string(rp.text)})
	if err != nil {
		return err
	}
	probePart, err := partition.Multilevel(rp.g, serveRanks, partition.MultilevelOptions{Seed: fixedSeeds(rp.seed)[0]})
	if err != nil {
		return err
	}
	calls := []struct {
		stage string
		n     int
		alloc bool
		fn    func() error
	}{
		{"graph.read_text", 3, false, func() error { _, err := graph.ReadText(bytes.NewReader(rp.text)); return err }},
		{"graph.read_dmgb", 3, false, func() error { _, err := graph.ReadDMGB(bytes.NewReader(enc)); return err }},
		{"graph.fingerprint", 3, false, func() error { graph.Fingerprint(rp.g); return nil }},
		{"service.decode_inline_request", 3, false, func() error { var req service.Request; return json.Unmarshal(inline, &req) }},
		{"partition.multilevel", 2, true, func() error {
			_, err := partition.Multilevel(rp.g, serveRanks, partition.MultilevelOptions{Seed: fixedSeeds(rp.seed)[1]})
			return err
		}},
		{"dgraph.distribute", 3, true, func() error { _, err := dgraph.Distribute(rp.g, probePart); return err }},
	}
	for _, c := range calls {
		for i := 0; i < c.n; i++ {
			var m0, m1 runtime.MemStats
			if c.alloc {
				runtime.ReadMemStats(&m0)
			}
			id := rp.tr.begin(c.stage, -1, -1, -1)
			err := c.fn()
			ms := rp.tr.end(id)
			if err != nil {
				return fmt.Errorf("probe %s: %w", c.stage, err)
			}
			rec := &jobRecord{phase: "probe", stages: map[string]float64{c.stage: ms}}
			if c.alloc {
				runtime.ReadMemStats(&m1)
				rec.allocMB = map[string]float64{c.stage: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)}
			}
			rp.add(rec)
		}
	}
	return nil
}

func (rp *replayer) add(rec *jobRecord) {
	rp.mu.Lock()
	rp.recs = append(rp.recs, rec)
	rp.mu.Unlock()
}

// stage times fn as one span outside the ranks, under parent.
func (rp *replayer) stage(rec *jobRecord, name string, job, parent int, fn func() error) error {
	id := rp.tr.begin(name, job, -1, parent)
	err := fn()
	rec.stages[name] += rp.tr.end(id)
	return err
}

// job replays job k and checks its answer.
func (rp *replayer) job(k int, j jobSpec, phase string, bundle int) error {
	var body []byte
	if rp.body != nil {
		var err error
		if body, err = rp.body(k); err != nil {
			return err
		}
	}
	rec := &jobRecord{phase: phase, algo: j.algo, stages: map[string]float64{}}
	root := rp.tr.begin("job."+j.algo, k, -1, -1)
	err := rp.jobStages(rec, body, k, root, j, bundle)
	rec.wall = rp.tr.end(root)
	if err == nil {
		rp.add(rec)
	}
	return err
}

func (rp *replayer) jobStages(rec *jobRecord, body []byte, k, root int, j jobSpec, bundle int) error {
	g := rp.g
	if body != nil {
		var req service.Request
		if err := rp.stage(rec, "service.decode_request", k, root, func() error { return json.Unmarshal(body, &req) }); err != nil {
			return err
		}
	}
	part, err := rp.partition(rec, g, j, k, root)
	if err != nil {
		return err
	}
	var out *solveOut
	if rp.tcp {
		out, err = rp.solveTCP(rec, g, part, j, k, root, bundle)
	} else {
		out, err = rp.solveInproc(rec, g, part, j, k, root)
	}
	if err != nil {
		return err
	}
	resp, err := rp.finishSolve(rec, g, out, j, k, root)
	if err != nil {
		return err
	}
	if body != nil {
		if err := rp.encode(rec, resp, k, root); err != nil {
			return err
		}
	}
	// Ghost counts are fixed by the partition: a repeat must agree.
	key := j.seed
	if rp.tcp {
		key = 0
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if prev, ok := rp.ghost[key]; ok && prev != rec.ghosts {
		return fmt.Errorf("dgraph.ghosts %d for partition seed %d, earlier %d: an exact count moved", rec.ghosts, key, prev)
	}
	rp.ghost[key] = rec.ghosts
	return nil
}

// encode serializes the answer as the service's respond stage does.
func (rp *replayer) encode(rec *jobRecord, resp *service.Response, k, root int) error {
	return rp.stage(rec, "service.encode_response", k, root, func() error {
		_, err := json.Marshal(resp)
		return err
	})
}

// partition returns the job's partition through the partition-cache
// mirror: a miss runs the partitioner under a span. The cut is measured
// once per partition, outside every span.
func (rp *replayer) partition(rec *jobRecord, g *graph.Graph, j jobSpec, k, root int) (*partition.Partition, error) {
	key := j.seed
	if rp.tcp {
		key = 0 // one block partition for every job
	}
	rp.mu.Lock()
	e, ok := rp.parts[key]
	rp.mu.Unlock()
	if !ok {
		var p *partition.Partition
		if err := rp.stage(rec, "partition.multilevel", k, root, func() (err error) {
			p, err = partition.Multilevel(g, serveRanks, partition.MultilevelOptions{Seed: j.seed})
			return err
		}); err != nil {
			return nil, err
		}
		e = partEntry{p, partition.Measure(g, p).CutFraction}
		rp.mu.Lock()
		rp.parts[key] = e
		rp.mu.Unlock()
	}
	rec.cut = e.cut
	return e.p, nil
}

// rankOut is what one rank hands back from its closure.
type rankOut struct {
	kernelID, collID int
	parts            [][]byte // rank 0: every rank's encoded result
	weight           float64
	iters            int64
	msgs, bytes      int64
	rounds           int
	conflicts        int64
	colors           int
}

// solveOut is a finished distributed run, before gather.
type solveOut struct {
	shares []*dgraph.DistGraph
	rank0  *rankOut
}

// rankBody is one rank's closure: the kernel, then the collectives that
// assemble the result (the same allreduces and Allgather the dmgm entry
// points make), each under a per-rank span.
func (rp *replayer) rankBody(c *mpi.Comm, d *dgraph.DistGraph, j jobSpec, k, parent, bundle int, out *rankOut) error {
	if j.algo == algoMatch {
		out.kernelID = rp.tr.begin("matching.kernel", k, c.Rank(), parent)
		res, err := matching.Parallel(c, d, matching.ParallelOptions{MaxBundleBytes: bundle})
		rp.tr.end(out.kernelID)
		if err != nil {
			return err
		}
		out.collID = rp.tr.begin("mpi.allgather", k, c.Rank(), parent)
		out.weight = c.AllreduceFloat64(res.LocalWeight, mpi.OpSum)
		out.iters = c.AllreduceInt64(res.OuterIterations, mpi.OpMax)
		snap := c.StatsSnapshot() // collectives are uncounted, so this is final
		out.msgs = c.AllreduceInt64(snap.SentMsgs, mpi.OpSum)
		out.bytes = c.AllreduceInt64(snap.SentBytes, mpi.OpSum)
		out.parts = c.Allgather(encodeInt64s(res.MateGlobal))
		rp.tr.end(out.collID)
		return nil
	}
	out.kernelID = rp.tr.begin("coloring.kernel", k, c.Rank(), parent)
	res, err := coloring.Parallel(c, d, coloring.ParallelOptions{SuperstepSize: 1000, CommMode: coloring.CommNeighbors, Seed: j.seed})
	rp.tr.end(out.kernelID)
	if err != nil {
		return err
	}
	out.collID = rp.tr.begin("mpi.allgather", k, c.Rank(), parent)
	out.conflicts = c.AllreduceInt64(res.Conflicts, mpi.OpSum)
	snap := c.StatsSnapshot()
	out.msgs = c.AllreduceInt64(snap.SentMsgs, mpi.OpSum)
	out.bytes = c.AllreduceInt64(snap.SentBytes, mpi.OpSum)
	out.parts = c.Allgather(encodeInt32s(res.Colors))
	rp.tr.end(out.collID)
	out.rounds, out.colors = res.Rounds, res.NumColors
	return nil
}

// solveInproc distributes on the calling goroutine and runs the ranks on a
// pooled in-process world, as the service does.
func (rp *replayer) solveInproc(rec *jobRecord, g *graph.Graph, part *partition.Partition, j jobSpec, k, root int) (*solveOut, error) {
	var shares []*dgraph.DistGraph
	if err := rp.stage(rec, "dgraph.distribute", k, root, func() (err error) {
		shares, err = dgraph.Distribute(g, part)
		return err
	}); err != nil {
		return nil, err
	}
	w := <-rp.worlds
	defer func() { rp.worlds <- w }()
	outs := make([]rankOut, part.P)
	runID := rp.tr.begin("mpi.run", k, -1, root)
	if _, err := w.Reset(); err != nil {
		return nil, err
	}
	err := w.Run(func(c *mpi.Comm) error {
		return rp.rankBody(c, shares[c.Rank()], j, k, runID, 0, &outs[c.Rank()])
	})
	runMs := rp.tr.end(runID)
	if err != nil {
		return nil, err
	}
	crit := rp.critical(outs, nil)
	rec.stages[kernelStage(j.algo)] += crit[0]
	rec.stages["mpi.allgather"] += crit[1]
	rec.stages["mpi.run_self"] += runMs - crit[0] - crit[1]
	return &solveOut{shares: shares, rank0: &outs[0]}, nil
}

// solveTCP runs one solve over a fresh localhost TCP mesh, one world per
// rank as in a multi-process job: every rank distributes the whole graph
// and rank 0 assembles the answer.
func (rp *replayer) solveTCP(rec *jobRecord, g *graph.Graph, part *partition.Partition, j jobSpec, k, root, bundle int) (*solveOut, error) {
	p := part.P
	var worlds []*mpi.World
	if err := rp.stage(rec, "mpi.tcp_setup", k, root, func() error {
		eps, err := transport.NewLocalTCPCluster(p)
		if err != nil {
			return err
		}
		for _, ep := range eps {
			w, err := mpi.NewWorld(p, mpi.WithTransport(ep), mpi.WithDeadline(time.Minute))
			if err != nil {
				return err
			}
			worlds = append(worlds, w)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	outs := make([]rankOut, p)
	distIDs := make([]int, p)
	startIDs := make([]int, p)
	shares := make([][]*dgraph.DistGraph, p)
	errs := make([]error, p)
	runStart := rp.tr.begin("mpi.run", k, -1, root)
	var wg sync.WaitGroup
	for i, w := range worlds {
		wg.Add(1)
		go func(i int, w *mpi.World) {
			defer wg.Done()
			distIDs[i] = rp.tr.begin("dgraph.distribute", k, i, runStart)
			sh, err := dgraph.Distribute(g, part)
			rp.tr.end(distIDs[i])
			if err != nil {
				errs[i] = err
				return
			}
			shares[i] = sh
			startIDs[i] = rp.tr.begin("mpi.tcp_start", k, i, runStart)
			errs[i] = w.Run(func(c *mpi.Comm) error {
				rp.tr.end(startIDs[i])
				return rp.rankBody(c, sh[c.Rank()], j, k, runStart, bundle, &outs[c.Rank()])
			})
			rp.tr.end(startIDs[i])
		}(i, w)
	}
	wg.Wait()
	runMs := rp.tr.end(runStart)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("tcp rank %d: %w", i, err)
		}
	}
	crit := rp.critical(outs, [][]int{distIDs, startIDs})
	rec.stages["dgraph.distribute"] += crit[0]
	rec.stages["mpi.tcp_setup"] += crit[1]
	rec.stages[kernelStage(j.algo)] += crit[2]
	rec.stages["mpi.allgather"] += crit[3]
	rec.stages["mpi.run_self"] += runMs - crit[0] - crit[1] - crit[2] - crit[3]
	return &solveOut{shares: shares[0], rank0: &outs[0]}, nil
}

// critical splits the ranks' phase spans into blocking times: a phase's
// share is how far it moved the last rank's finish. pre lists earlier
// per-rank phases (span ids by rank); the kernel and the collectives
// follow. The shares sum to the time from the first rank's start to the
// last rank's finish.
func (rp *replayer) critical(outs []rankOut, pre [][]int) []float64 {
	var phases [][]int
	phases = append(phases, pre...)
	kern := make([]int, len(outs))
	coll := make([]int, len(outs))
	for r := range outs {
		kern[r], coll[r] = outs[r].kernelID, outs[r].collID
	}
	phases = append(phases, kern, coll)
	first := int64(-1)
	for _, id := range phases[0] {
		if s := rp.tr.get(id).Start; first < 0 || s < first {
			first = s
		}
	}
	shares := make([]float64, len(phases))
	prev := first
	for i, ids := range phases {
		last := prev
		for _, id := range ids {
			if e := rp.tr.get(id).End; e > last {
				last = e
			}
		}
		shares[i] = float64(last-prev) / 1e6
		prev = last
	}
	return shares
}

// finishSolve gathers, verifies and formats rank 0's answer on the calling
// goroutine, checks it against the oracle, and returns it as the service
// would.
func (rp *replayer) finishSolve(rec *jobRecord, g *graph.Graph, out *solveOut, j jobSpec, k, root int) (*service.Response, error) {
	r0 := out.rank0
	rec.msgs, rec.bytes = r0.msgs, r0.bytes
	for _, d := range out.shares {
		rec.ghosts += int64(d.NGhost)
	}
	resp := &service.Response{Algorithm: j.algo, Ranks: len(out.shares), Fingerprint: rp.fp,
		Messages: r0.msgs, Bytes: r0.bytes}
	var sb strings.Builder
	if j.algo == algoMatch {
		results := make([]*matching.ParallelResult, len(r0.parts))
		for r, p := range r0.parts {
			results[r] = &matching.ParallelResult{MateGlobal: decodeInt64s(p)}
		}
		var mates matching.Mates
		if err := rp.stage(rec, "matching.gather", k, root, func() (err error) {
			mates, err = matching.Gather(out.shares, results)
			return err
		}); err != nil {
			return nil, err
		}
		if err := rp.stage(rec, "matching.verify", k, root, func() error { return mates.VerifyMaximal(g) }); err != nil {
			return nil, err
		}
		if err := rp.stage(rec, "matching.format", k, root, func() error { return matching.WriteMates(&sb, mates) }); err != nil {
			return nil, err
		}
		rec.iters, rec.resultBytes = r0.iters, sb.Len()
		resp.Weight, resp.Cardinality, resp.Result = r0.weight, mates.Cardinality(), sb.String()
		return resp, rp.or.checkMates(mates, r0.weight)
	}
	results := make([]*coloring.ParallelResult, len(r0.parts))
	for r, p := range r0.parts {
		results[r] = &coloring.ParallelResult{Colors: decodeInt32s(p)}
	}
	var colors coloring.Colors
	if err := rp.stage(rec, "coloring.gather", k, root, func() (err error) {
		colors, err = coloring.Gather(out.shares, results)
		return err
	}); err != nil {
		return nil, err
	}
	if err := rp.stage(rec, "coloring.verify", k, root, func() error { return colors.Verify(g) }); err != nil {
		return nil, err
	}
	if err := rp.stage(rec, "coloring.format", k, root, func() error { return coloring.WriteColors(&sb, colors) }); err != nil {
		return nil, err
	}
	rec.rounds, rec.conflicts, rec.resultBytes = r0.rounds, r0.conflicts, sb.Len()
	resp.Colors, resp.Rounds, resp.Conflicts, resp.Result = r0.colors, r0.rounds, r0.conflicts, sb.String()
	return resp, rp.or.checkColors(colors, r0.colors)
}

func kernelStage(algo string) string {
	if algo == algoMatch {
		return "matching.kernel"
	}
	return "coloring.kernel"
}

func encodeInt64s(xs []int64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

func decodeInt64s(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func encodeInt32s(xs []int32) []byte {
	out := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(x))
	}
	return out
}

func decodeInt32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
