package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/protocols"
	"repro/internal/shard"
)

// The traced run measures the layers from outside, by timing calls into
// their public functions: every protocol node is wrapped in a timing and
// counting congest.Node, a counting congest.Tracer splits rounds and bits by
// the phase tag the nodes set, the shard spawner's connections are wrapped
// to time the coordinator's blocking reads, and spans (name, start, end,
// parent) are kept in memory and written out when the run ends. Untraced
// operations never touch any of this.

// phases are the protocol's message kinds (protocols.Kind*), in order.
var phases = []string{protocols.KindElim, protocols.KindBag, protocols.KindTable, protocols.KindVerdict, protocols.KindTarget}

func phaseIndex(kind string) int {
	for i, p := range phases {
		if p == kind {
			return i
		}
	}
	return -1
}

// layerStats accumulates one traced operation's per-layer counts and times.
type layerStats struct {
	engineWall  time.Duration // wall time of congest Simulator.Run calls
	nodeCompute time.Duration // time inside Node.Init/Round
	nodeSteps   int64         // Node.Round calls
	idleSteps   int64         // ... with an empty inbox, no sends and no halt
	silent      int64         // rounds in which no message was sent
	phaseTime   [5]time.Duration
	phaseRounds [5]int64
	phaseBits   [5]int64

	composeHits, composeMisses int64
	decodeHits, decodeMisses   int64
	classes                    int

	spawn     time.Duration // shard workers' start-up, up to connected
	coordWait time.Duration // coordinator blocked reading worker sockets
	workerCPU time.Duration // user+system time of the shard workers

	spans  *spanLog
	parent int // span the layer calls are children of
}

// timedNode wraps a protocol node and charges the time of each call to the
// phase the node is in when the call returns (the tag its sends carry).
type timedNode struct {
	inner congest.Node
	ls    *layerStats
}

func (t *timedNode) Init(env *congest.Env) []congest.Outgoing {
	start := time.Now()
	out := t.inner.Init(env)
	t.charge(env, time.Since(start))
	return out
}

func (t *timedNode) Round(env *congest.Env, inbox []congest.Incoming) ([]congest.Outgoing, bool) {
	start := time.Now()
	out, halted := t.inner.Round(env, inbox)
	t.charge(env, time.Since(start))
	t.ls.nodeSteps++
	if len(inbox) == 0 && len(out) == 0 && !halted {
		t.ls.idleSteps++
	}
	return out, halted
}

func (t *timedNode) charge(env *congest.Env, d time.Duration) {
	t.ls.nodeCompute += d
	if i := phaseIndex(env.Kind()); i >= 0 {
		t.ls.phaseTime[i] += d
	}
}

// phaseTracer counts, per phase tag, the rounds in which the phase sent
// anything and the bits it sent, plus the rounds in which nobody sent.
type phaseTracer struct {
	ls        *layerStats
	sentRound [5]int // last round counted per phase
	anySent   bool
}

func (p *phaseTracer) RunStart(congest.RunInfo) {
	for i := range p.sentRound {
		p.sentRound[i] = -1
	}
}
func (p *phaseTracer) RoundStart(int) { p.anySent = false }
func (p *phaseTracer) Send(e congest.SendEvent) {
	p.anySent = true
	i := phaseIndex(e.Kind)
	if i < 0 {
		return
	}
	p.ls.phaseBits[i] += int64(e.SizeBits)
	if p.sentRound[i] != e.Round {
		p.sentRound[i] = e.Round
		p.ls.phaseRounds[i]++
	}
}
func (p *phaseTracer) NodeHalted(int, int) {}
func (p *phaseTracer) RoundEnd(round, _, _ int) {
	if round > 0 && !p.anySent {
		p.ls.silent++
	}
}
func (p *phaseTracer) RunEnd(congest.Stats) {}

// tracedRun is protocols.Run assembled from its public parts, with every
// node wrapped in a timedNode and a phaseTracer installed. It runs the
// sequential engine, so node timings never overlap.
func tracedRun(g *graph.Graph, cfg protocols.Config, opts congest.Options, ls *layerStats) (*protocols.RunResult, error) {
	if cfg.VertexLabelNames == nil {
		cfg.VertexLabelNames = g.VertexLabelNames()
	}
	if cfg.EdgeLabelNames == nil {
		cfg.EdgeLabelNames = g.EdgeLabelNames()
	}
	opts.Parallel = false
	opts.Tracer = &phaseTracer{ls: ls}
	sim, err := congest.NewSimulator(g, opts)
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	inner := make([]congest.Node, n)
	sp := ls.spans.begin("congest.Simulator.Run", ls.parent)
	start := time.Now()
	stats, err := sim.Run(func(v int) congest.Node {
		inner[v] = protocols.NewNode(cfg)
		return &timedNode{inner: inner[v], ls: ls}
	})
	ls.engineWall += time.Since(start)
	ls.spans.end(sp)
	if err != nil {
		return nil, err
	}
	sp = ls.spans.begin("protocols.AssembleResult", ls.parent)
	defer ls.spans.end(sp)
	outputs := make([]protocols.Output, n)
	for v := range inner {
		if outputs[v], err = protocols.Result(inner[v]); err != nil {
			return nil, err
		}
	}
	res, err := protocols.AssembleResult(g, cfg, sim.IDs(), outputs)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	ls.addCache(res)
	return res, nil
}

func (l *layerStats) addCache(res *protocols.RunResult) {
	c := res.Cache
	l.composeHits += c.ComposeHits
	l.composeMisses += c.ComposeMisses
	l.decodeHits += c.DecodeHits
	l.decodeMisses += c.DecodeMisses
	if c.Classes > l.classes {
		l.classes = c.Classes
	}
}

// timedSpawner wraps a shard.Spawner: it times Spawn and wraps every
// connection so the coordinator's blocking reads are timed.
type timedSpawner struct {
	inner shard.Spawner
	ls    *layerStats
}

func (s *timedSpawner) Spawn(shards int) ([]io.ReadWriteCloser, func(), error) {
	sp := s.ls.spans.begin("shard.Spawner.Spawn", s.ls.parent)
	start := time.Now()
	conns, cleanup, err := s.inner.Spawn(shards)
	s.ls.spawn += time.Since(start)
	s.ls.spans.end(sp)
	if err != nil {
		return nil, nil, err
	}
	for i, c := range conns {
		conns[i] = &timedConn{ReadWriteCloser: c, ls: s.ls}
	}
	return conns, cleanup, nil
}

// timedConn charges the time spent in Read to the coordinator's wait. The
// coordinator reads its workers one after another on one goroutine, so the
// sum is time the coordinator was blocked.
type timedConn struct {
	io.ReadWriteCloser
	ls *layerStats
}

func (c *timedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.ReadWriteCloser.Read(p)
	c.ls.coordWait += time.Since(start)
	return n, err
}

// span is one timed call at a layer boundary. Parent is the index of the
// enclosing span, -1 for an operation's root span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spanLog keeps the traced run's spans in memory, with times relative to
// the log's creation.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (s *spanLog) begin(name string, parent int) int {
	s.spans = append(s.spans, span{Name: name, Start: time.Since(s.t0).Nanoseconds(), Parent: parent})
	return len(s.spans) - 1
}

func (s *spanLog) end(i int) { s.spans[i].End = time.Since(s.t0).Nanoseconds() }

// write stores the spans as JSON lines in path.
func (s *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range s.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// perLayer computes the per-layer metrics of a traced run: times, shares
// and daemon figures from the traced operations, heap and wire figures from
// the untraced operations run alongside them, and set-up splits from set-up.
func perLayer(w workload, plain, traced []opRecord, genS, oracleS float64) map[string]metric {
	var refs, raws, rawsTraced []float64
	for _, op := range plain {
		refs = append(refs, op.ref)
		raws = append(raws, op.raw)
	}
	var self, nsPerStep, spawn, wait, cpu []float64
	var share [5][]float64
	for _, op := range traced {
		refs = append(refs, op.ref)
		rawsTraced = append(rawsTraced, op.raw)
		ls := op.ls
		selfT := (ls.engineWall - ls.nodeCompute).Seconds()
		self = append(self, selfT)
		nsPerStep = append(nsPerStep, ratio(selfT*1e9, float64(ls.nodeSteps)))
		for i := range phases {
			share[i] = append(share[i], ratio(ls.phaseTime[i].Seconds(), ls.nodeCompute.Seconds()))
		}
		spawn = append(spawn, ls.spawn.Seconds()/op.raw)
		wait = append(wait, ls.coordWait.Seconds()/op.raw)
		cpu = append(cpu, ls.workerCPU.Seconds()/op.raw)
	}
	last := traced[len(traced)-1].ls
	m := map[string]metric{
		"ref.kernel_s":         {median(refs), "s"},
		"raw.solve_s":          {median(raws), "s"},
		"trace.overhead_ratio": {median(rawsTraced) / median(raws), "ratio"},
		"gen.graph_s":          {genS, "s"},
		"seq.solve_s":          {oracleS, "s"},

		"congest.self_s":        {median(self), "s"},
		"congest.ns_per_step":   {median(nsPerStep), "ns"},
		"congest.node_steps":    {float64(last.nodeSteps), "count"},
		"congest.idle_steps":    {float64(last.idleSteps), "count"},
		"congest.silent_rounds": {float64(last.silent), "count"},

		"regular.compose_lookups":   {float64(last.composeHits + last.composeMisses), "count"},
		"regular.compose_hit_ratio": {ratio(float64(last.composeHits), float64(last.composeHits+last.composeMisses)), "ratio"},
		"regular.decode_hit_ratio":  {ratio(float64(last.decodeHits), float64(last.decodeHits+last.decodeMisses)), "ratio"},
		"regular.classes":           {float64(last.classes), "count"},

		"shard.spawn_share":      {median(spawn), "ratio"},
		"shard.coord_wait_share": {median(wait), "ratio"},
		"shard.worker_cpu_share": {median(cpu), "ratio"},
	}
	for i, p := range phases {
		m["protocols."+p+"_share"] = metric{median(share[i]), "ratio"}
		m["protocols."+p+"_rounds"] = metric{float64(last.phaseRounds[i]), "count"}
		m["protocols."+p+"_bits"] = metric{float64(last.phaseBits[i]), "bit"}
	}

	var heap, allocs, cycles []float64
	for _, op := range plain {
		heap = append(heap, op.peakHeap)
		allocs = append(allocs, op.allocObjs)
		cycles = append(cycles, op.gcCycles)
	}
	var solveShare, overheadShare, tail, hit []float64
	var kind [3][]float64
	for _, op := range traced {
		sv := op.s.serve
		if sv == nil {
			continue
		}
		lat50 := quantile(op.s.latencies, 0.5)
		over := make([]float64, len(sv.elapsed))
		total := 0.0
		for i, e := range sv.elapsed {
			over[i] = op.s.latencies[i] - e
			total += op.s.latencies[i]
		}
		solveShare = append(solveShare, quantile(sv.elapsed, 0.5)/lat50)
		tail = append(tail, quantile(op.s.latencies, 0.99)/lat50)
		overheadShare = append(overheadShare, quantile(over, 0.5)/lat50)
		for k := range kind {
			kind[k] = append(kind[k], sv.kindLatency[k]/total)
		}
		hit = append(hit, ratio(float64(sv.hits), float64(sv.lookups)))
	}
	m["mem.heap_bytes_per_node"] = metric{median(heap) / float64(w.vertices()), "B"}
	m["mem.allocs"] = metric{median(allocs), "count"}
	m["mem.gc_cycles"] = metric{median(cycles), "count"}
	m["serve.solve_p50_share"] = metric{median(solveShare), "ratio"}
	m["serve.overhead_p50_share"] = metric{median(overheadShare), "ratio"}
	for k, name := range kindNames {
		m["serve."+name+"_share"] = metric{median(kind[k]), "ratio"}
	}
	m["serve.cache_hit_ratio"] = metric{median(hit), "ratio"}
	m["serve.p99_over_p50"] = metric{median(tail), "ratio"}

	first := plain[0].s
	m["shard.frames"] = metric{float64(first.frames), "count"}
	m["shard.wire_mb"] = metric{float64(first.wireBytes) / 1e6, "MB"}
	m["shard.wire_bytes_per_msg"] = metric{ratio(float64(first.wireBytes), float64(first.stats.Messages)), "B"}
	return m
}
