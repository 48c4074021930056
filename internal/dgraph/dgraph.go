// Package dgraph implements the distributed graph representation the paper's
// algorithms operate on: each rank owns a subset of the vertices, stores the
// adjacency of its owned vertices, and represents cross edges through ghost
// vertices — "a boundary vertex u is stored on its corresponding processor
// p(u) as well as on every other processor p(v) such that (u, v) is a cross
// edge" (Section 3.3).
//
// Local indices are dense: owned vertices occupy [0, NLocal) in ascending
// global-id order, ghosts occupy [NLocal, NLocal+NGhost), also in ascending
// global-id order. The CSR rows cover owned vertices only; columns may point
// at ghosts. Per-vertex classification into interior and boundary, the
// per-neighbor-rank send lists, and the cross-edge counts that control the
// matching algorithm's outer-loop termination are all precomputed here.
package dgraph

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/partition"
)

// DistGraph is one rank's share of a distributed graph.
type DistGraph struct {
	Rank int // owning rank
	P    int // total ranks

	GlobalN     int64 // vertices in the whole graph
	GlobalEdges int64 // undirected edges in the whole graph

	NLocal int // owned vertices
	NGhost int // distinct remote endpoints of cross edges

	// GlobalID maps local index -> global id, for owned vertices and ghosts.
	GlobalID []int64
	// GhostOwner maps ghost slot (local index - NLocal) -> owning rank.
	GhostOwner []int32

	// CSR over owned vertices; Adj holds local indices (owned or ghost).
	Xadj []int64
	Adj  []int32
	W    []float64

	// IsBoundary marks owned vertices with at least one ghost neighbor.
	IsBoundary []bool
	// NumBoundary counts owned boundary vertices.
	NumBoundary int
	// CrossArcs counts arcs from owned vertices to ghosts (each cross edge
	// once per side).
	CrossArcs int64

	// NeighborRanks lists the distinct ranks owning at least one ghost,
	// ascending — the "neighboring processors" the paper's NEW coloring
	// variant restricts communication to.
	NeighborRanks []int

	globalToLocal map[int64]int32
}

// Degree reports the degree of an owned vertex (cross edges included).
func (d *DistGraph) Degree(v int32) int { return int(d.Xadj[v+1] - d.Xadj[v]) }

// Neighbors returns the local-index neighbor list of owned vertex v.
func (d *DistGraph) Neighbors(v int32) []int32 { return d.Adj[d.Xadj[v]:d.Xadj[v+1]] }

// Weights returns the arc weights aligned with Neighbors(v); nil if the
// graph is unweighted.
func (d *DistGraph) Weights(v int32) []float64 {
	if d.W == nil {
		return nil
	}
	return d.W[d.Xadj[v]:d.Xadj[v+1]]
}

// Weight reports the weight of arc i, treating unweighted graphs as unit.
func (d *DistGraph) Weight(i int64) float64 {
	if d.W == nil {
		return 1
	}
	return d.W[i]
}

// IsGhost reports whether local index v refers to a ghost vertex.
func (d *DistGraph) IsGhost(v int32) bool { return int(v) >= d.NLocal }

// OwnerOf reports the rank owning the vertex at local index v.
func (d *DistGraph) OwnerOf(v int32) int {
	if d.IsGhost(v) {
		return int(d.GhostOwner[int(v)-d.NLocal])
	}
	return d.Rank
}

// LocalOf resolves a global id to a local index (owned or ghost).
func (d *DistGraph) LocalOf(global int64) (int32, bool) {
	l, ok := d.globalToLocal[global]
	return l, ok
}

// GlobalOf resolves a local index to its global id.
func (d *DistGraph) GlobalOf(v int32) int64 { return d.GlobalID[v] }

// Validate checks the structural invariants of the distributed view.
func (d *DistGraph) Validate() error {
	if d.NLocal < 0 || d.NGhost < 0 {
		return fmt.Errorf("dgraph: negative counts NLocal=%d NGhost=%d", d.NLocal, d.NGhost)
	}
	if len(d.GlobalID) != d.NLocal+d.NGhost {
		return fmt.Errorf("dgraph: GlobalID len %d, want %d", len(d.GlobalID), d.NLocal+d.NGhost)
	}
	if len(d.Xadj) != d.NLocal+1 {
		return fmt.Errorf("dgraph: Xadj len %d, want %d", len(d.Xadj), d.NLocal+1)
	}
	if len(d.GhostOwner) != d.NGhost {
		return fmt.Errorf("dgraph: GhostOwner len %d, want %d", len(d.GhostOwner), d.NGhost)
	}
	for i := 1; i < d.NLocal; i++ {
		if d.GlobalID[i-1] >= d.GlobalID[i] {
			return fmt.Errorf("dgraph: owned global ids not ascending at %d", i)
		}
	}
	for i := d.NLocal + 1; i < len(d.GlobalID); i++ {
		if d.GlobalID[i-1] >= d.GlobalID[i] {
			return fmt.Errorf("dgraph: ghost global ids not ascending at %d", i)
		}
	}
	var cross int64
	for v := 0; v < d.NLocal; v++ {
		boundary := false
		for _, u := range d.Neighbors(int32(v)) {
			if u < 0 || int(u) >= d.NLocal+d.NGhost {
				return fmt.Errorf("dgraph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if d.IsGhost(u) {
				boundary = true
				cross++
			}
		}
		if boundary != d.IsBoundary[v] {
			return fmt.Errorf("dgraph: vertex %d boundary flag %v, computed %v", v, d.IsBoundary[v], boundary)
		}
	}
	if cross != d.CrossArcs {
		return fmt.Errorf("dgraph: CrossArcs %d, computed %d", d.CrossArcs, cross)
	}
	for g, l := range d.globalToLocal {
		if d.GlobalID[l] != g {
			return fmt.Errorf("dgraph: globalToLocal inconsistent at %d", g)
		}
	}
	return nil
}

// Distribute splits a global graph over p ranks according to part, producing
// every rank's DistGraph. Since the runtime is in-process, ranks typically
// index into the returned slice rather than deserializing anything.
func Distribute(g *graph.Graph, part *partition.Partition) ([]*DistGraph, error) {
	if err := part.Validate(g); err != nil {
		return nil, err
	}
	owned := partition.PartVertices(part) // ascending ids per part
	s := newScratch(g.NumVertices())
	out := make([]*DistGraph, part.P)
	for rank := range out {
		out[rank] = s.buildLocal(g, part, rank, owned[rank])
	}
	return out, nil
}

// DistributeRank builds only the given rank's share, for use inside mpi.Run
// bodies that do not want to materialize all shares up front.
func DistributeRank(g *graph.Graph, part *partition.Partition, rank int) (*DistGraph, error) {
	if err := part.Validate(g); err != nil {
		return nil, err
	}
	if rank < 0 || rank >= part.P {
		return nil, fmt.Errorf("dgraph: rank %d of %d", rank, part.P)
	}
	var owned []graph.Vertex
	for v, pt := range part.Part {
		if int(pt) == rank {
			owned = append(owned, graph.Vertex(v))
		}
	}
	return newScratch(g.NumVertices()).buildLocal(g, part, rank, owned), nil
}

// scratch is the reusable state of a share build: a dense global→local index
// over all n global vertices, a bitmap of one rank's ghosts, and a buffer for
// their ids. Between builds every index entry is unset and every bit clear.
type scratch struct {
	local  []int32  // global id -> local index, or unset
	marks  []uint64 // bit u set: u is a ghost of the rank being built
	ghosts []int64
}

const unset = -1

func newScratch(n int) *scratch {
	s := &scratch{local: make([]int32, n), marks: make([]uint64, (n+63)/64)}
	for i := range s.local {
		s.local[i] = unset
	}
	return s
}

// buildLocal builds rank's share from its owned vertices (ascending global
// ids), then resets the index entries it set.
func (s *scratch) buildLocal(g *graph.Graph, part *partition.Partition, rank int, owned []graph.Vertex) *DistGraph {
	d := &DistGraph{
		Rank:        rank,
		P:           part.P,
		GlobalN:     int64(g.NumVertices()),
		GlobalEdges: g.NumEdges(),
		NLocal:      len(owned),
	}
	local := s.local
	for i, v := range owned {
		local[v] = int32(i)
	}
	// Discover ghosts: every remote endpoint of an owned vertex gets its bit.
	marks := s.marks
	for _, v := range owned {
		for _, u := range g.Neighbors(v) {
			if local[u] == unset {
				marks[u>>6] |= 1 << (u & 63)
			}
		}
	}
	// Read the ghosts off the bitmap in ascending id order, clearing it.
	ghosts := s.ghosts[:0]
	for w, word := range marks {
		if word == 0 {
			continue
		}
		for ; word != 0; word &= word - 1 {
			ghosts = append(ghosts, int64(w<<6|bits.TrailingZeros64(word)))
		}
		marks[w] = 0
	}
	s.ghosts = ghosts
	d.NGhost = len(ghosts)
	d.GlobalID = make([]int64, d.NLocal+d.NGhost)
	for i, v := range owned {
		d.GlobalID[i] = int64(v)
	}
	copy(d.GlobalID[d.NLocal:], ghosts)
	d.GhostOwner = make([]int32, d.NGhost)
	nbr := make([]bool, part.P)
	for i, gid := range ghosts {
		local[gid] = int32(d.NLocal + i)
		owner := part.Part[gid]
		d.GhostOwner[i] = owner
		nbr[owner] = true
	}
	for r, ok := range nbr {
		if ok {
			d.NeighborRanks = append(d.NeighborRanks, r)
		}
	}
	// CSR rows for owned vertices, with columns read from the index.
	d.Xadj = make([]int64, d.NLocal+1)
	var arcs int64
	for i, v := range owned {
		arcs += int64(g.Degree(v))
		d.Xadj[i+1] = arcs
	}
	d.Adj = make([]int32, arcs)
	if g.W != nil {
		d.W = make([]float64, arcs)
	}
	d.IsBoundary = make([]bool, d.NLocal)
	nLocal := int32(d.NLocal)
	for i, v := range owned {
		row := d.Adj[d.Xadj[i]:d.Xadj[i+1]]
		for k, u := range g.Neighbors(v) {
			lu := local[u]
			row[k] = lu
			if lu >= nLocal {
				d.IsBoundary[i] = true
				d.CrossArcs++
			}
		}
		if d.W != nil {
			copy(d.W[d.Xadj[i]:], g.Weights(v))
		}
		if d.IsBoundary[i] {
			d.NumBoundary++
		}
	}
	// The index is scratch; LocalOf answers from an exact-size map.
	d.globalToLocal = make(map[int64]int32, len(d.GlobalID))
	for l, gid := range d.GlobalID {
		d.globalToLocal[gid] = int32(l)
		local[gid] = unset
	}
	return d
}
