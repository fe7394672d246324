package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/protocols"
	"repro/internal/regular"
	"repro/internal/serve"
)

// daemonWorkload drives an in-process dmcd (serve.Server on a loopback
// listener) with two closed-loop clients. One operation is one pass over a
// fixed, seeded sequence of small requests; every response is compared with
// a one-shot core solve made in set-up and, where one exists, with a check
// computed apart from the program.
type daemonWorkload struct {
	queries   []*query
	sequence  []int // catalog index of each request of a pass
	client    *http.Client
	base      string
	srv       *serve.Server
	hs        *http.Server
	served    sync.WaitGroup
	nVertices int
}

// The catalog's graph shapes and identifier permutations are fixed
// (gen.BoundedTreedepth with seeds 1..daemonGraphs, 12 to 22 vertices; ID
// seed = graph number): on graphs this small a request's cost depends
// strongly on both, and drawing them from the workload seed made the pass
// time and round count differ across seeds by 12–26%, more than the bound
// can absorb. The workload seed draws the vertex and edge weights (hence the
// optima and selected sets) and the request order.
const (
	daemonGraphs  = 12
	daemonRepeats = 5 // each catalog entry is asked this many times per pass
	daemonClients = 2
)

// Request kinds, for the per-kind latency split.
const (
	kindDist = iota
	kindSeq
	kindFormula
)

var kindNames = [3]string{"dist", "seq", "formula"}

// query is one catalog entry: a request body, its one-shot answer, and an
// independent check of the response (nil when only the one-shot applies).
type query struct {
	kind    int
	problem string // registered problem, "" for a formula
	name    string
	g       *graph.Graph
	cfg     protocols.Config // for the traced in-process replica (dist, formula)
	seed    int64
	body    []byte
	want    *core.Solution
	check   func(*serve.CheckResponse) error
}

// daemonProblems are the registered problems asked of every catalog graph:
// decision, optimisation and counting, in both modes.
var daemonProblems = []struct {
	kind    int
	problem string
}{
	{kindDist, "acyclic"}, {kindDist, "2-colorable"}, {kindDist, "min-dominating-set"}, {kindDist, "count-perfect-matchings"},
	{kindSeq, "acyclic"}, {kindSeq, "connected"}, {kindSeq, "2-colorable"}, {kindSeq, "min-dominating-set"},
	{kindSeq, "max-independent-set"}, {kindSeq, "count-triangles"},
}

// Formulas sent as "formula" requests, with their independent checks.
var daemonFormulas = []struct {
	text  string
	holds func(*graph.Graph) bool
}{
	{"~ exists x:V,y:V,z:V . adj(x,y) & adj(y,z) & adj(z,x)", func(g *graph.Graph) bool { return countTriangles(g) == 0 }},
	{"forall x:V . exists y:V . adj(x,y)", func(g *graph.Graph) bool { return minDegree(g) >= 1 }},
}

func newDmcdMixed() workload { return &daemonWorkload{} }

func (w *daemonWorkload) vertices() int { return w.nVertices }

func (w *daemonWorkload) setUp(seed int64) (setupTimes, error) {
	var st setupTimes
	rng := rand.New(rand.NewSource(seed))
	formulaPreds := make([]regular.Predicate, len(daemonFormulas))
	for i, f := range daemonFormulas {
		pred, err := core.CompileClosedFormula(f.text)
		if err != nil {
			return st, fmt.Errorf("formula %q: %w", f.text, err)
		}
		formulaPreds[i] = pred
	}
	replicaCaches := map[string]*regular.Shared{}
	for gi := 0; gi < daemonGraphs; gi++ {
		start := time.Now()
		n := 12 + 2*(gi%6)
		g, _ := gen.BoundedTreedepth(n, 3, 0.35, int64(gi+1))
		gen.AssignRandomWeights(g, 9, rng.Int63())
		st.gen += time.Since(start)
		w.nVertices += n
		var text strings.Builder
		if err := graph.WriteEdgeList(&text, g); err != nil {
			return st, err
		}
		idSeed := int64(gi + 1)
		connected, bipartite := bfsColour(g)
		checks := map[string]func(*serve.CheckResponse) error{
			"acyclic":     func(r *serve.CheckResponse) error { return checkVerdict("acyclic", r.Accepted, isAcyclic(g)) },
			"connected":   func(r *serve.CheckResponse) error { return checkVerdict("connected", r.Accepted, connected) },
			"2-colorable": func(r *serve.CheckResponse) error { return checkVerdict("2-colorable", r.Accepted, bipartite) },
			"count-triangles": func(r *serve.CheckResponse) error {
				if want := countTriangles(g); r.Count != want {
					return fmt.Errorf("count-triangles: program says %d, independent count %d", r.Count, want)
				}
				return nil
			},
		}
		add := func(kind int, label string, prob core.Problem, formula string, check func(*serve.CheckResponse) error) error {
			q := &query{kind: kind, name: fmt.Sprintf("g%d/%s/%s", gi, kindNames[kind], label), g: g, check: check}
			req := serve.CheckRequest{Graph: text.String(), Formula: formula, Mode: "dist", D: 3}
			if formula == "" {
				q.problem, req.Problem = label, label
			}
			var err error
			if kind == kindSeq {
				req.Mode = "seq"
				start := time.Now()
				q.want, err = core.SolveSequential(g, prob)
				st.oracle += time.Since(start)
			} else {
				req.Seed = idSeed
				q.seed = idSeed
				q.want, err = core.SolveDistributed(g, prob, 3, congest.Options{IDSeed: idSeed})
				if err == nil {
					q.cfg, err = protocolConfig(prob, 3)
				}
				if err == nil {
					// The replica shares one DP cache per predicate across
					// runs, as the daemon does.
					sh, ok := replicaCaches[label]
					if !ok {
						sh = regular.NewShared(q.cfg.Pred)
						replicaCaches[label] = sh
					}
					q.cfg.Pred, q.cfg.Cache = sh.Predicate(), sh
				}
			}
			if err != nil {
				return fmt.Errorf("one-shot %s: %w", q.name, err)
			}
			if q.body, err = json.Marshal(req); err != nil {
				return err
			}
			w.queries = append(w.queries, q)
			return nil
		}
		for _, e := range daemonProblems {
			prob, err := core.Lookup(e.problem)
			if err != nil {
				return st, err
			}
			if err := add(e.kind, e.problem, prob, "", checks[e.problem]); err != nil {
				return st, err
			}
		}
		for i, f := range daemonFormulas {
			pred, holds, formula := formulaPreds[i], f.holds, f.text
			prob := core.Problem{Name: "formula", Kind: core.KindDecision, Build: func() (regular.Predicate, error) { return pred, nil }}
			check := func(r *serve.CheckResponse) error { return checkVerdict("formula "+formula, r.Accepted, holds(g)) }
			if err := add(kindFormula, fmt.Sprintf("formula%d", i), prob, formula, check); err != nil {
				return st, err
			}
		}
	}
	// The optimisation answers are checked against their definitions and
	// the sequential optimum, which the catalog already holds.
	for _, q := range w.queries {
		if q.check != nil {
			continue
		}
		q.check = w.optCheck(q)
	}
	for i := range w.queries {
		for r := 0; r < daemonRepeats; r++ {
			w.sequence = append(w.sequence, i)
		}
	}
	rng.Shuffle(len(w.sequence), func(i, j int) { w.sequence[i], w.sequence[j] = w.sequence[j], w.sequence[i] })
	return st, w.start()
}

// optCheck returns the independent check for an optimisation or
// perfect-matching query (nil for the latter, which only the one-shot
// solve checks).
func (w *daemonWorkload) optCheck(q *query) func(*serve.CheckResponse) error {
	oracle := q.want.Weight
	for _, o := range w.queries {
		if o.g == q.g && o.kind == kindSeq && o.problem == q.problem {
			oracle = o.want.Weight
		}
	}
	switch q.problem {
	case "min-dominating-set":
		return func(r *serve.CheckResponse) error { return checkDominatingSet(q.g, r.Selected, r.Weight, oracle) }
	case "max-independent-set":
		return func(r *serve.CheckResponse) error { return checkIndependentSet(q.g, r.Selected, r.Weight, oracle) }
	}
	return nil
}

// protocolConfig is the protocol configuration core.SolveDistributed builds
// for prob at treedepth parameter d.
func protocolConfig(prob core.Problem, d int) (protocols.Config, error) {
	pred, err := prob.Build()
	if err != nil {
		return protocols.Config{}, err
	}
	cfg := protocols.Config{Pred: pred, D: d}
	switch prob.Kind {
	case core.KindDecision:
		cfg.Mode = protocols.ModeDecide
	case core.KindOptimization:
		cfg.Mode, cfg.Maximize = protocols.ModeOptimize, prob.Maximize
	default:
		cfg.Mode = protocols.ModeCount
	}
	return cfg, nil
}

// start runs the daemon on a loopback listener.
func (w *daemonWorkload) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("daemon listener: %w", err)
	}
	w.srv = serve.New(serve.Options{})
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients, DisableCompression: true}}
	w.served.Add(1)
	go func() {
		defer w.served.Done()
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return nil
}

func (w *daemonWorkload) close() {
	if w.hs == nil {
		return
	}
	w.srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // a timeout leaves only idle keep-alive connections
	w.served.Wait()
	w.client.CloseIdleConnections()
	w.hs = nil
}

// run sends one pass of the request sequence from the closed-loop clients;
// the sample's check verifies every response. A traced pass also reads the
// shared-cache counters from /v1/stats before and after.
func (w *daemonWorkload) run(tr *layerStats) (sample, error) {
	var before, after [2]int64
	var err error
	if tr != nil {
		if before, err = w.cacheCounts(); err != nil {
			return sample{}, err
		}
	}
	n := len(w.sequence)
	lat := make([]float64, n)
	elapsed := make([]float64, n)
	resps := make([]*serve.CheckResponse, n)
	faults := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += daemonClients {
				start := time.Now()
				resps[i], faults[i] = w.post(w.queries[w.sequence[i]].body)
				lat[i] = time.Since(start).Seconds()
			}
		}(c)
	}
	wg.Wait()
	if tr != nil {
		if after, err = w.cacheCounts(); err != nil {
			return sample{}, err
		}
	}

	s := sample{queries: n, latencies: lat, serve: &serveSample{elapsed: elapsed}}
	s.serve.hits, s.serve.lookups = after[0]-before[0], after[1]-before[1]
	for i, r := range resps {
		s.serve.kindLatency[w.queries[w.sequence[i]].kind] += lat[i]
		if r == nil {
			continue
		}
		elapsed[i] = r.ElapsedMS / 1000
		s.stats.Rounds += r.Rounds
		s.stats.Messages += r.Messages
		s.stats.Bits += r.Bits
	}
	s.check = func() (failed int, first error) {
		for i, r := range resps {
			q := w.queries[w.sequence[i]]
			err := faults[i]
			if err == nil {
				err = q.verify(r)
			}
			if err != nil {
				failed++
				if first == nil {
					first = fmt.Errorf("%s: %w", q.name, err)
				}
			}
		}
		return failed, first
	}
	return s, nil
}

// post sends one check request; any status but 200 is a fault.
func (w *daemonWorkload) post(body []byte) (*serve.CheckResponse, error) {
	resp, err := w.client.Post(w.base+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var out serve.CheckResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// cacheCounts reads the shared caches' summed hits and lookups from
// /v1/stats.
func (w *daemonWorkload) cacheCounts() ([2]int64, error) {
	var out [2]int64
	resp, err := w.client.Get(w.base + "/v1/stats")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return out, fmt.Errorf("/v1/stats: %w", err)
	}
	for _, c := range st.Caches {
		hits := c.ComposeHits + c.AcceptHits + c.SelectionHits + c.DecodeHits
		out[0] += hits
		out[1] += hits + c.ComposeMisses + c.AcceptMisses + c.SelectionMisses + c.DecodeMisses
	}
	return out, nil
}

// verify compares a response with the one-shot answer and runs the
// independent check.
func (q *query) verify(r *serve.CheckResponse) error {
	want := q.want
	if r.TdExceeded || r.TdExceeded != want.TdExceeded {
		return errors.New("td_exceeded on a graph generated with treedepth <= 3")
	}
	if r.Accepted != want.Accepted || r.Found != want.Found || r.Weight != want.Weight || r.Count != want.Count {
		return fmt.Errorf("answer accepted/found/weight/count %v/%v/%d/%d, one-shot %v/%v/%d/%d",
			r.Accepted, r.Found, r.Weight, r.Count, want.Accepted, want.Found, want.Weight, want.Count)
	}
	var wantSel []int
	if want.Selected != nil {
		wantSel = want.Selected.Indices()
	}
	if fmt.Sprint(r.Selected) != fmt.Sprint(wantSel) {
		return fmt.Errorf("selected %v, one-shot %v", r.Selected, wantSel)
	}
	if q.kind != kindSeq {
		got := congest.Stats{Rounds: r.Rounds, Messages: r.Messages, Bits: r.Bits}
		if err := checkCounters(got, want.Stats); err != nil {
			return err
		}
	}
	if q.check != nil {
		return q.check(r)
	}
	return nil
}

// replica traces each distinct distributed query of the catalog once in
// process, for the engine and protocol split of the daemon's request mix.
func (w *daemonWorkload) replica(ls *layerStats) error {
	for _, q := range w.queries {
		if q.kind == kindSeq {
			continue
		}
		res, err := tracedRun(q.g, q.cfg, congest.Options{IDSeed: q.seed}, ls)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		if err := checkCounters(res.Stats, q.want.Stats); err != nil {
			return fmt.Errorf("%s replica: %w", q.name, err)
		}
	}
	return nil
}
