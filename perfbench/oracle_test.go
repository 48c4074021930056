package main

import (
	"strings"
	"testing"

	"repro/internal/coloring"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/order"
)

func testOracle(t *testing.T) *oracle {
	t.Helper()
	g, err := gen.ErdosRenyi(400, 1600, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	or, err := newOracle(g)
	if err != nil {
		t.Fatal(err)
	}
	return or
}

func TestOracleAcceptsTheReference(t *testing.T) {
	or := testOracle(t)
	m := append(matching.Mates(nil), or.mates...)
	if err := or.checkMates(m, or.weight*(1+1e-12)); err != nil {
		t.Fatalf("reference matching rejected: %v", err)
	}
	if err := or.checkMatchText(string(or.matesText), or.weight, or.card); err != nil {
		t.Fatalf("reference text rejected: %v", err)
	}
	c, err := coloring.Greedy(or.g, order.Natural, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := or.checkColors(c, c.NumColors()); err != nil {
		t.Fatalf("greedy coloring rejected: %v", err)
	}
	var sb strings.Builder
	if err := coloring.WriteColors(&sb, c); err != nil {
		t.Fatal(err)
	}
	if err := or.checkColorText(sb.String(), c.NumColors()); err != nil {
		t.Fatalf("greedy coloring text rejected: %v", err)
	}
}

func TestOracleRejectsCorruptedMatching(t *testing.T) {
	or := testOracle(t)
	// Unmatch one matched pair: still a valid matching, but not the
	// locally-dominant one.
	m := append(matching.Mates(nil), or.mates...)
	for v, u := range m {
		if u != graph.None {
			m[v], m[u] = graph.None, graph.None
			break
		}
	}
	if err := or.checkMates(m, or.weight); err == nil {
		t.Error("a matching missing one edge was accepted")
	}
	if err := or.checkMates(or.mates, or.weight+1); err == nil {
		t.Error("a wrong weight was accepted")
	}
	if err := or.checkMates(or.mates[:len(or.mates)-1], or.weight); err == nil {
		t.Error("a short matching was accepted")
	}
	text := string(or.matesText)
	if err := or.checkMatchText(text[:len(text)-2]+"\n", or.weight, or.card); err == nil {
		t.Error("a corrupted result text was accepted")
	}
	if err := or.checkMatchText(text, or.weight, or.card-1); err == nil {
		t.Error("a wrong cardinality was accepted")
	}
}

func TestOracleRejectsImproperColoring(t *testing.T) {
	or := testOracle(t)
	c, err := coloring.Greedy(or.g, order.Natural, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Give one endpoint of an edge its neighbor's color.
	bad := append(coloring.Colors(nil), c...)
	for v := 0; v < or.g.NumVertices(); v++ {
		if nb := or.g.Neighbors(graph.Vertex(v)); len(nb) > 0 {
			bad[v] = bad[nb[0]]
			break
		}
	}
	if err := or.checkColors(bad, bad.NumColors()); err == nil {
		t.Error("an improper coloring was accepted")
	}
	// A proper coloring with more than Δ+1 colors breaks the bound.
	wide := make(coloring.Colors, or.g.NumVertices())
	for v := range wide {
		wide[v] = int32(v)
	}
	if err := or.checkColors(wide, wide.NumColors()); err == nil {
		t.Errorf("a coloring with %d > Δ+1 = %d colors was accepted", wide.NumColors(), or.maxColors)
	}
	if err := or.checkColors(c, c.NumColors()+1); err == nil {
		t.Error("a wrong reported color count was accepted")
	}
	if err := or.checkColorText("coloring 3\n0\n", 1); err == nil {
		t.Error("a truncated coloring text was accepted")
	}
}
