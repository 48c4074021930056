package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/matching"
)

// oracle judges every answer the benchmark receives. Matching follows
// Hoepman: the distributed ½-approximation must equal the sequential
// locally-dominant matching exactly, whatever the partition or message
// interleaving. Coloring must be proper with at most Δ+1 colors.
type oracle struct {
	g         *graph.Graph
	mates     matching.Mates
	matesText []byte // matching.WriteMates of mates: what the service must answer
	weight    float64
	card      int
	maxColors int // Δ+1
}

func newOracle(g *graph.Graph) (*oracle, error) {
	m := matching.LocallyDominant(g)
	var buf bytes.Buffer
	if err := matching.WriteMates(&buf, m); err != nil {
		return nil, fmt.Errorf("formatting the reference matching: %w", err)
	}
	return &oracle{g: g, mates: m, matesText: buf.Bytes(), weight: m.Weight(g),
		card: m.Cardinality(), maxColors: g.MaxDegree() + 1}, nil
}

// checkMates accepts a matching only if every mate equals the reference and
// the reported weight agrees with the reference weight (to rounding: the
// distributed weight is summed in a different order).
func (o *oracle) checkMates(m matching.Mates, weight float64) error {
	if len(m) != len(o.mates) {
		return fmt.Errorf("matching has %d vertices, graph has %d", len(m), len(o.mates))
	}
	for v := range m {
		if m[v] != o.mates[v] {
			return fmt.Errorf("mate of vertex %d is %d, locally-dominant matching says %d", v, m[v], o.mates[v])
		}
	}
	return o.checkWeight(weight)
}

func (o *oracle) checkWeight(weight float64) error {
	if math.Abs(weight-o.weight) > 1e-9*math.Max(1, math.Abs(o.weight)) {
		return fmt.Errorf("matching weight %v, reference %v", weight, o.weight)
	}
	return nil
}

// checkMatchText accepts a served matching only if its result text is
// byte-identical to the reference's and weight and cardinality agree.
func (o *oracle) checkMatchText(result string, weight float64, card int) error {
	if result != string(o.matesText) {
		return fmt.Errorf("matching result text differs from matching.WriteMates of the reference (%d vs %d bytes)",
			len(result), len(o.matesText))
	}
	if card != o.card {
		return fmt.Errorf("matching cardinality %d, reference %d", card, o.card)
	}
	return o.checkWeight(weight)
}

// checkColors accepts a proper, complete coloring with at most Δ+1 colors
// whose reported color count matches the coloring itself.
func (o *oracle) checkColors(c coloring.Colors, reported int) error {
	if err := c.Verify(o.g); err != nil {
		return err
	}
	n := c.NumColors()
	if n > o.maxColors {
		return fmt.Errorf("coloring uses %d colors, more than Δ+1 = %d", n, o.maxColors)
	}
	if reported != n {
		return fmt.Errorf("reported %d colors, coloring uses %d", reported, n)
	}
	return nil
}

// checkColorText parses a served coloring and checks it.
func (o *oracle) checkColorText(result string, reported int) error {
	c, err := coloring.ReadColors(strings.NewReader(result))
	if err != nil {
		return fmt.Errorf("parsing coloring result: %w", err)
	}
	return o.checkColors(c, reported)
}
