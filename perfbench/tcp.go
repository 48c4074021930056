package main

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

const (
	rmatScale, rmatEdgeFactor = 15, 8
	tcpRanks                  = 4
	tcpProbeSolves            = 6  // bundled solves, matching and coloring alternating
	unbundledBytes            = 17 // one protocol record per message: bundling off
)

// tcpProbe ends every traced run with distributed solves over real
// localhost sockets on a high-cut graph — RMAT-15, block partition, p=4,
// each solve on four worlds joined by a fresh TCP mesh, as in a
// multi-process job — and then one unbundled matching, the paper's
// bundling ablation. Its spans go to tr and its answers are checked like
// every other op. It reports the TCP transport's metrics.
func tcpProbe(cfg config, tr *tracer, res *result) error {
	g, err := gen.RMAT(rmatScale, rmatEdgeFactor, true, cfg.seed)
	if err != nil {
		return err
	}
	fp := graph.Fingerprint(g)
	res.input("tcp-probe graph", fmt.Sprintf("gen.RMAT(scale=%d, edgefactor=%d, weighted=true, seed=%d)", rmatScale, rmatEdgeFactor, cfg.seed), g, fp)
	or, err := newOracle(g)
	if err != nil {
		return err
	}
	part, err := partition.Block1D(g, tcpRanks)
	if err != nil {
		return err
	}
	rp := newReplayer(g, or, nil, res)
	rp.tr, rp.tcp = tr, true
	rp.parts[0] = partEntry{part, partition.Measure(g, part).CutFraction}
	for k := 0; k < tcpProbeSolves; k++ {
		res.op(rp.job(-3, jobAt(k, cfg.seed, false), "probe", 0))
	}
	var setup, wall, msgs []float64
	for _, r := range rp.recs {
		setup = append(setup, r.stages["mpi.tcp_setup"])
		if r.algo == algoMatch {
			wall = append(wall, r.wall)
			msgs = append(msgs, float64(r.msgs))
		}
	}
	res.set("mpi.tcp_setup_ms", median(setup), len(setup), "probe")
	n := len(rp.recs)
	err = rp.job(-2, jobAt(0, cfg.seed, false), "ablation", unbundledBytes)
	res.op(err)
	if err != nil || len(rp.recs) == n || len(wall) == 0 {
		return err
	}
	u := rp.recs[n]
	res.setBase("mpi.bundling_msg_ratio", float64(u.msgs)/median(msgs), len(msgs)+1, "probe",
		fmt.Sprintf("%d unbundled / %.0f bundled msgs (bundled %s), cut %.2f", u.msgs, median(msgs), spreadBase(msgs), rp.parts[0].cut))
	res.setBase("mpi.bundling_wall_ratio", u.wall/median(wall), len(wall)+1, "probe",
		fmt.Sprintf("%.1f unbundled / %.1f bundled ms", u.wall, median(wall)))
	return nil
}
