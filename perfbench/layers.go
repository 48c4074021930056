package main

import "fmt"

// timedStages are the replay's stages; each reports as <stage>_ms.
var timedStages = []string{
	"graph.read_text", "graph.fingerprint", "graph.read_dmgb",
	"partition.multilevel", "dgraph.distribute",
	"matching.kernel", "matching.gather", "matching.verify", "matching.format",
	"coloring.kernel", "coloring.gather", "coloring.verify", "coloring.format",
	"mpi.allgather", "mpi.run_self", "mpi.tcp_setup",
	"service.decode_request", "service.decode_inline_request", "service.encode_response",
}

// phaseOrder is the preference among sample sources: a stage reports from
// the timed window where the window's jobs reach it, else from the
// replay's warm-up jobs, else from the serial probes.
var phaseOrder = []string{"window", "warmup", "probe"}

// finish turns the replay's records into the per-layer metrics.
func (rp *replayer) finish(res *result) {
	res.spans = rp.tr.spans
	for _, st := range timedStages {
		for _, ph := range phaseOrder {
			var xs []float64
			for _, r := range rp.recs {
				if v, ok := r.stages[st]; ok && r.phase == ph {
					xs = append(xs, v)
				}
			}
			if len(xs) > 0 {
				res.set(st+"_ms", median(xs), len(xs), ph)
				break
			}
		}
	}
	for _, st := range []string{"partition.multilevel", "dgraph.distribute"} {
		var xs []float64
		for _, r := range rp.recs {
			if v, ok := r.allocMB[st]; ok {
				xs = append(xs, v)
			}
		}
		res.set(st+"_alloc_mb", median(xs), len(xs), "probe")
	}
	res.set("graph.text_bytes", float64(len(rp.text)), 1, "setup")

	// Counts come from the window's solves, or the warm-up's where the
	// window ran none.
	solves, src := rp.solves()
	var match, color []*jobRecord
	for _, r := range solves {
		if r.algo == algoMatch {
			match = append(match, r)
		} else {
			color = append(color, r)
		}
	}
	n := float64(rp.g.NumVertices())
	countOf := func(name string, recs []*jobRecord, f func(*jobRecord) float64) {
		xs := make([]float64, len(recs))
		for i, r := range recs {
			xs[i] = f(r)
		}
		res.setBase(name, median(xs), len(xs), src, spreadBase(xs))
	}
	countOf("partition.cut_ratio", solves, func(r *jobRecord) float64 { return r.cut })
	countOf("dgraph.ghosts", solves, func(r *jobRecord) float64 { return float64(r.ghosts) })
	countOf("matching.outer_iters", match, func(r *jobRecord) float64 { return float64(r.iters) })
	countOf("matching.result_bytes", match, func(r *jobRecord) float64 { return float64(r.resultBytes) })
	countOf("coloring.rounds", color, func(r *jobRecord) float64 { return float64(r.rounds) })
	countOf("coloring.conflict_ratio", color, func(r *jobRecord) float64 { return float64(r.conflicts) / n })
	countOf("mpi.match_msgs", match, func(r *jobRecord) float64 { return float64(r.msgs) })
	countOf("mpi.match_bytes", match, func(r *jobRecord) float64 { return float64(r.bytes) })
	countOf("mpi.color_msgs", color, func(r *jobRecord) float64 { return float64(r.msgs) })
	countOf("mpi.color_bytes", color, func(r *jobRecord) float64 { return float64(r.bytes) })
	var msgs, bytes int64
	for _, r := range solves {
		msgs += r.msgs
		bytes += r.bytes
	}
	q := ratio{bytes, msgs}
	res.setBase("mpi.bytes_per_msg", q.value(), len(solves), src, q.base())

	// Job-level figures of the replay itself, over the window's jobs.
	var wall, blocking, rest, run []float64
	for _, r := range rp.recs {
		if r.phase != "window" {
			continue
		}
		sum, handler := 0.0, 0.0
		for st, v := range r.stages {
			sum += v
			if handlerStages[st] {
				handler += v
			}
		}
		wall = append(wall, r.wall)
		blocking = append(blocking, sum)
		rest = append(rest, r.wall-sum)
		run = append(run, sum-handler)
	}
	res.set("trace.job_p50_ms", median(wall), len(wall), "window")
	res.set("trace.blocking_ms", median(blocking), len(blocking), "window")
	res.set("trace.unattributed_ms", median(rest), len(rest), "window")
	rp.runP50 = median(run)
}

// handlerStages run in the service's HTTP handler, outside the job run
// that the answers' elapsed_seconds time.
var handlerStages = map[string]bool{
	"service.decode_request": true, "service.encode_response": true,
}

// solves returns the replayed jobs that ran a solve, from the window if
// any did, else from the warm-up.
func (rp *replayer) solves() ([]*jobRecord, string) {
	for _, ph := range phaseOrder[:2] {
		var out []*jobRecord
		for _, r := range rp.recs {
			if r.phase == ph && r.algo != "" {
				out = append(out, r)
			}
		}
		if len(out) > 0 {
			return out, ph
		}
	}
	return nil, "none"
}

// spreadBase renders the range of a count's samples: a single value for a
// count that repeated exactly, min..max for one that spread.
func spreadBase(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	s := sorted(xs)
	if s[0] == s[len(s)-1] {
		return fmt.Sprintf("all %g", s[0])
	}
	return fmt.Sprintf("%g..%g", s[0], s[len(s)-1])
}
