package main

import (
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph/gen"
	"repro/internal/protocols"
	"repro/internal/serve"
	"repro/internal/treedepth"
)

// Each check must accept the program's answer and reject it once corrupted:
// a flipped verdict, a vertex dropped from the set, a weight off by one, one
// message more.

func TestIndependentGraphChecks(t *testing.T) {
	if !isAcyclic(gen.Path(6)) || isAcyclic(gen.Cycle(6)) {
		t.Error("isAcyclic: wrong on a path or a cycle")
	}
	if conn, bip := bfsColour(gen.Cycle(6)); !conn || !bip {
		t.Errorf("bfsColour(C6) = %v, %v; want connected and bipartite", conn, bip)
	}
	if conn, bip := bfsColour(gen.Cycle(5)); !conn || bip {
		t.Errorf("bfsColour(C5) = %v, %v; want connected, not bipartite", conn, bip)
	}
	u, _ := gen.DisjointUnion(gen.Path(3), gen.Path(2))
	if conn, _ := bfsColour(u); conn {
		t.Error("bfsColour: two components reported connected")
	}
	if got := countTriangles(gen.Complete(4)); got != 4 {
		t.Errorf("countTriangles(K4) = %d, want 4", got)
	}
	if got := minDegree(gen.Star(5)); got != 1 {
		t.Errorf("minDegree(star) = %d, want 1", got)
	}
}

func TestSolveChecksRejectCorruptAnswers(t *testing.T) {
	for _, w := range []*solveWorkload{
		{problem: "acyclic", n: 60, extra: 0.1, d: 3},
		{problem: "min-dominating-set", n: 60, extra: 0.3, d: 3},
	} {
		if _, err := w.setUp(7); err != nil {
			t.Fatalf("%s: set-up: %v", w.problem, err)
		}
		res, err := protocols.Run(w.g, w.cfg, congest.Options{})
		if err != nil {
			t.Fatalf("%s: run: %v", w.problem, err)
		}
		if err := w.check(res); err != nil {
			t.Fatalf("%s: correct answer rejected: %v", w.problem, err)
		}
		corrupt := func(what string, edit func(r *protocols.RunResult)) {
			bad := *res
			if res.Selected != nil {
				bad.Selected = res.Selected.Clone()
			}
			edit(&bad)
			if w.check(&bad) == nil {
				t.Errorf("%s: %s accepted", w.problem, what)
			}
		}
		corrupt("td_exceeded", func(r *protocols.RunResult) { r.TdExceeded = true })
		corrupt("broken forest", func(r *protocols.RunResult) {
			parent := append([]int(nil), r.Forest.Parent...)
			for v, p := range parent {
				if p >= 0 {
					parent[v] = -1 // detach: its edge to p is no longer ancestor-descendant
					break
				}
			}
			r.Forest = treedepth.NewForest(parent)
		})
		if w.cfg.Mode == protocols.ModeDecide {
			corrupt("flipped verdict", func(r *protocols.RunResult) { r.Accepted = !r.Accepted })
			continue
		}
		corrupt("vertex dropped", func(r *protocols.RunResult) { r.Selected.Remove(r.Selected.Indices()[0]) })
		corrupt("weight off by one", func(r *protocols.RunResult) { r.Weight++ })
	}
}

func TestShardCountersCheck(t *testing.T) {
	want := congest.Stats{Rounds: 300, Messages: 1000, Bits: 64000}
	if err := checkCounters(want, want); err != nil {
		t.Fatalf("equal counters rejected: %v", err)
	}
	got := want
	got.Messages++
	if checkCounters(got, want) == nil {
		t.Error("one message more accepted")
	}
}

func TestDaemonChecksRejectCorruptResponses(t *testing.T) {
	w := &daemonWorkload{}
	if _, err := w.setUp(3); err != nil {
		t.Fatalf("set-up: %v", err)
	}
	defer w.close()
	seen := map[string]bool{}
	for _, q := range w.queries {
		key := kindNames[q.kind] + "/" + q.problem
		if seen[key] {
			continue
		}
		seen[key] = true
		resp, err := w.post(q.body)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if err := q.verify(resp); err != nil {
			t.Fatalf("%s: correct response rejected: %v", q.name, err)
		}
		corrupt := func(what string, edit func(r *serve.CheckResponse)) {
			bad := *resp
			bad.Selected = append([]int(nil), resp.Selected...)
			edit(&bad)
			if q.verify(&bad) == nil {
				t.Errorf("%s: %s accepted", q.name, what)
			}
		}
		corrupt("flipped verdict", func(r *serve.CheckResponse) { r.Accepted = !r.Accepted })
		corrupt("weight off by one", func(r *serve.CheckResponse) { r.Weight++ })
		corrupt("count off by one", func(r *serve.CheckResponse) { r.Count++ })
		if len(resp.Selected) > 0 {
			corrupt("vertex dropped", func(r *serve.CheckResponse) { r.Selected = r.Selected[1:] })
		}
		if q.kind != kindSeq {
			corrupt("one message more", func(r *serve.CheckResponse) { r.Messages++ })
		}
	}
	if len(seen) < 3 {
		t.Fatalf("catalog covers %d request kinds, want every kind", len(seen))
	}
}

// The one-shot answers a daemon response is compared with come from core;
// the optimisation checks must also hold against core's own answer.
func TestOptimisationChecksAcceptOracle(t *testing.T) {
	g, _ := gen.BoundedTreedepth(40, 3, 0.3, 5)
	gen.AssignRandomWeights(g, 9, 6)
	for _, name := range []string{"min-dominating-set", "max-independent-set"} {
		prob, err := core.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := core.SolveSequential(g, prob)
		if err != nil {
			t.Fatal(err)
		}
		sel := sol.Selected.Indices()
		check := checkDominatingSet
		if name == "max-independent-set" {
			check = checkIndependentSet
		}
		if err := check(g, sel, sol.Weight, sol.Weight); err != nil {
			t.Errorf("%s: oracle answer rejected: %v", name, err)
		}
		if check(g, sel[1:], sol.Weight, sol.Weight) == nil {
			t.Errorf("%s: vertex dropped accepted", name)
		}
		if check(g, sel, sol.Weight+1, sol.Weight) == nil {
			t.Errorf("%s: weight off by one accepted", name)
		}
	}
}
