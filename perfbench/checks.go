package main

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/treedepth"
)

// The checks below are computed apart from the model checker: the graph
// properties with the benchmark's own union-find and BFS, the optimisation
// answers against properties any correct answer has. A check returns nil
// when the answer is right and an error naming the first fault otherwise;
// the harness counts an operation with any fault as failed.

// isAcyclic reports whether g is a forest: a graph is acyclic exactly when
// m = n - (number of components), counted here by union-find.
func isAcyclic(g *graph.Graph) bool {
	n := g.NumVertices()
	parent := make([]int, n)
	for v := range parent {
		parent[v] = v
	}
	find := func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	components := n
	for _, e := range g.Edges() {
		a, b := find(e.U), find(e.V)
		if a != b {
			parent[a] = b
			components--
		}
	}
	return g.NumEdges() == n-components
}

// bfsColour 2-colours g by breadth-first search. It returns whether every
// vertex was reached from vertex 0 and whether the colouring is proper.
func bfsColour(g *graph.Graph) (connected, bipartite bool) {
	n := g.NumVertices()
	if n == 0 {
		return true, true
	}
	colour := make([]int8, n)
	for v := range colour {
		colour[v] = -1
	}
	bipartite = true
	reached := 0
	for s := 0; s < n; s++ {
		if colour[s] >= 0 {
			continue
		}
		colour[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			if s == 0 {
				reached++
			}
			for _, w := range g.Neighbors(u) {
				switch {
				case colour[w] < 0:
					colour[w] = 1 - colour[u]
					queue = append(queue, w)
				case colour[w] == colour[u]:
					bipartite = false
				}
			}
		}
	}
	return reached == n, bipartite
}

// countTriangles counts the triangles of g by checking every edge's common
// neighbours above its larger endpoint.
func countTriangles(g *graph.Graph) int64 {
	var count int64
	for _, e := range g.Edges() {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		for _, w := range g.Neighbors(u) {
			if w > v && g.HasEdge(v, w) {
				count++
			}
		}
	}
	return count
}

// minDegree is the smallest vertex degree of g.
func minDegree(g *graph.Graph) int {
	m := -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(v); m < 0 || d < m {
			m = d
		}
	}
	return m
}

func checkVerdict(what string, got, want bool) error {
	if got != want {
		return fmt.Errorf("%s: program says %v, independent check says %v", what, got, want)
	}
	return nil
}

// checkSetWeight checks what every optimisation answer must satisfy: its
// vertices are in range, their weights sum to the reported weight, and that
// weight equals the sequential oracle's optimum.
func checkSetWeight(what string, g *graph.Graph, selected []int, weight, oracle int64) error {
	var sum int64
	for _, v := range selected {
		if v < 0 || v >= g.NumVertices() {
			return fmt.Errorf("%s: vertex %d out of range", what, v)
		}
		sum += g.VertexWeight(v)
	}
	if sum != weight {
		return fmt.Errorf("%s: selected weights sum to %d, reported weight %d", what, sum, weight)
	}
	if weight != oracle {
		return fmt.Errorf("%s: weight %d, sequential oracle %d", what, weight, oracle)
	}
	return nil
}

// checkDominatingSet checks a min-weight dominating set answer: the
// selected vertices dominate g and pass checkSetWeight.
func checkDominatingSet(g *graph.Graph, selected []int, weight, oracle int64) error {
	if err := checkSetWeight("dominating set", g, selected, weight, oracle); err != nil {
		return err
	}
	dominated := make([]bool, g.NumVertices())
	for _, v := range selected {
		dominated[v] = true
		for _, w := range g.Neighbors(v) {
			dominated[w] = true
		}
	}
	for v, ok := range dominated {
		if !ok {
			return fmt.Errorf("dominating set: vertex %d is not dominated", v)
		}
	}
	return nil
}

// checkIndependentSet checks a max-weight independent set answer: no two
// selected vertices are adjacent and the set passes checkSetWeight.
func checkIndependentSet(g *graph.Graph, selected []int, weight, oracle int64) error {
	if err := checkSetWeight("independent set", g, selected, weight, oracle); err != nil {
		return err
	}
	in := make([]bool, g.NumVertices())
	for _, v := range selected {
		in[v] = true
	}
	for _, e := range g.Edges() {
		if in[e.U] && in[e.V] {
			return fmt.Errorf("independent set: edge {%d,%d} inside the set", e.U, e.V)
		}
	}
	return nil
}

// checkForest checks the elimination tree a run returned: a valid
// elimination forest of g whose depth is within Lemma 2.5's bound 2^d.
func checkForest(g *graph.Graph, f *treedepth.Forest, d int) error {
	if f == nil {
		return fmt.Errorf("forest: none returned")
	}
	depth := f.Depth()
	if err := treedepth.ValidateForest(g, f, depth); err != nil {
		return fmt.Errorf("forest: %w", err)
	}
	if depth >= 1<<d {
		return fmt.Errorf("forest: depth %d, want below 2^%d", depth, d)
	}
	return nil
}

// checkCounters checks that a run's CONGEST cost equals a reference run's.
func checkCounters(got, want congest.Stats) error {
	if got.Rounds != want.Rounds || got.Messages != want.Messages || got.Bits != want.Bits {
		return fmt.Errorf("counters: rounds/messages/bits %d/%d/%d, reference %d/%d/%d",
			got.Rounds, got.Messages, got.Bits, want.Rounds, want.Messages, want.Bits)
	}
	return nil
}
