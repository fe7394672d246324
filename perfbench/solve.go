package main

import (
	"errors"
	"fmt"
	"syscall"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/protocols"
	"repro/internal/shard"
)

// solveWorkload runs one distributed query on one generated graph per
// operation: in process on the sequential engine (the dmc default), or
// through shard.Run with real worker processes.
type solveWorkload struct {
	problem string  // registered core problem
	n       int     // vertices
	extra   float64 // gen.BoundedTreedepth's extra-edge probability
	d       int     // treedepth parameter
	shards  int     // 0 runs in process; otherwise the worker count
	// shape, when nonzero, fixes the generator seed of the graph's shape;
	// the workload seed then draws only the vertex and edge weights.
	shape int64

	g      *graph.Graph
	cfg    protocols.Config
	oracle *core.Solution // sequential Algorithm 1 answer
	ref    congest.Stats  // in-process counters (sharded runs must match)
	// acyclic is the independent answer for the decision problem.
	acyclic bool
}

func newDecideElim() workload {
	return &solveWorkload{problem: "acyclic", n: 20000, extra: 0.1, d: 3}
}

// The DP's cost is set by the few largest tables near the top of the
// elimination tree, so it follows the graph's shape: across shape seeds the
// solve time differed by ~5%, a large part of the bound. The shape is
// therefore fixed and the workload seed draws the weights, which change the
// optimum and the selected set.
func newOptimizeDP() workload {
	return &solveWorkload{problem: "min-dominating-set", n: 3500, extra: 0.3, d: 3, shape: 1}
}

func newShardedK2() workload {
	return &solveWorkload{problem: "acyclic", n: 5000, extra: 0.1, d: 3, shards: 2}
}

func (w *solveWorkload) vertices() int { return w.n }

func (w *solveWorkload) setUp(seed int64) (setupTimes, error) {
	var st setupTimes
	start := time.Now()
	shape := seed
	if w.shape != 0 {
		shape = w.shape
	}
	w.g, _ = gen.BoundedTreedepth(w.n, w.d, w.extra, shape)
	gen.AssignRandomWeights(w.g, 50, seed+1)
	st.gen = time.Since(start)

	prob, err := core.Lookup(w.problem)
	if err != nil {
		return st, err
	}
	if w.cfg, err = protocolConfig(prob, w.d); err != nil {
		return st, err
	}
	w.acyclic = isAcyclic(w.g)

	start = time.Now()
	if w.oracle, err = core.SolveSequential(w.g, prob); err != nil {
		return st, fmt.Errorf("sequential oracle: %w", err)
	}
	st.oracle = time.Since(start)
	if w.cfg.Mode == protocols.ModeDecide && w.oracle.Accepted != w.acyclic {
		return st, fmt.Errorf("sequential oracle says acyclic=%v, union-find says %v", w.oracle.Accepted, w.acyclic)
	}

	if w.shards > 0 {
		res, err := protocols.Run(w.g, w.cfg, congest.Options{})
		if err != nil {
			return st, fmt.Errorf("in-process reference run: %w", err)
		}
		w.ref = res.Stats
		if err := w.check(res); err != nil {
			return st, fmt.Errorf("in-process reference run: %w", err)
		}
	}
	return st, nil
}

func (w *solveWorkload) run(tr *layerStats) (sample, error) {
	s := sample{queries: 1}
	var res *protocols.RunResult
	var err error
	switch {
	case w.shards > 0:
		var spawner shard.Spawner = &shard.ExecSpawner{}
		var cpu0 time.Duration
		if tr != nil {
			spawner = &timedSpawner{inner: spawner, ls: tr}
			cpu0 = childrenCPU()
		}
		var sr *shard.Result
		sr, err = shard.Run(w.g, shard.Spec{Problem: w.problem, D: w.d}, shard.Options{Shards: w.shards, Spawn: spawner})
		if tr != nil {
			tr.workerCPU += childrenCPU() - cpu0
		}
		if err == nil {
			res = sr.Run
			s.wireBytes = sr.Wire.BytesSent + sr.Wire.BytesRecv
			s.frames = sr.Wire.FramesSent + sr.Wire.FramesRecv
		}
	case tr != nil:
		res, err = tracedRun(w.g, w.cfg, congest.Options{}, tr)
	default:
		res, err = protocols.Run(w.g, w.cfg, congest.Options{})
	}
	if err != nil {
		return s, err
	}
	s.stats = res.Stats
	s.check = func() (int, error) {
		if err := w.check(res); err != nil {
			return 1, err
		}
		return 0, nil
	}
	return s, nil
}

// replica gives the sharded workload its engine and protocol split: the
// same query traced in process (the workers run the same node programs).
func (w *solveWorkload) replica(ls *layerStats) error {
	if w.shards == 0 {
		return nil
	}
	res, err := tracedRun(w.g, w.cfg, congest.Options{}, ls)
	if err != nil {
		return err
	}
	return w.check(res)
}

// check verifies one run's answer apart from the program: the verdict
// against union-find, the dominating set against its definition and the
// oracle's optimum, the elimination forest against the graph, and a sharded
// run's counters against the in-process run's.
func (w *solveWorkload) check(res *protocols.RunResult) error {
	if res.TdExceeded {
		return errors.New("td_exceeded on a graph generated with treedepth <= d")
	}
	if err := checkForest(w.g, res.Forest, w.d); err != nil {
		return err
	}
	switch w.cfg.Mode {
	case protocols.ModeDecide:
		if err := checkVerdict(w.problem, res.Accepted, w.acyclic); err != nil {
			return err
		}
	case protocols.ModeOptimize:
		if !res.Found || res.Selected == nil {
			return errors.New("optimisation found no solution")
		}
		if err := checkDominatingSet(w.g, res.Selected.Indices(), res.Weight, w.oracle.Weight); err != nil {
			return err
		}
	}
	if w.shards > 0 {
		return checkCounters(res.Stats, w.ref)
	}
	return nil
}

func (w *solveWorkload) close() {}

// childrenCPU is the user+system time of all reaped child processes.
func childrenCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
