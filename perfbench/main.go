// Command perfbench is the repository's benchmark: it times the paper's
// pipeline (Algorithm 2 elimination, Lemma 5.3 bags, the Theorem 6.1 DP) in
// process, through the dmcd daemon and across shard worker processes, checks
// every answer apart from the program, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload decide-elim --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from
// a separate traced run. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/congest"
	"repro/internal/shard"
)

// workload is one set of inputs and the operation run on them.
type workload interface {
	// setUp generates the inputs from seed and computes the reference
	// answers.
	setUp(seed int64) (setupTimes, error)
	// run performs one operation and checks its answers; ls is non-nil only
	// in the traced run and collects per-layer counts and times.
	run(ls *layerStats) (sample, error)
	// replica traces, outside the timed operation, the in-process runs
	// that give the engine and protocol split where the operation itself
	// cannot be wrapped (daemon, shard workers).
	replica(ls *layerStats) error
	// vertices is the number of graph vertices one operation solves over.
	vertices() int
	close()
}

var workloads = map[string]func() workload{
	"decide-elim": newDecideElim,
	"optimize-dp": newOptimizeDP,
	"dmcd-mixed":  newDmcdMixed,
	"sharded-k2":  newShardedK2,
}

// setupTimes splits one set-up into the layers it calls.
type setupTimes struct {
	gen    time.Duration // graph generation
	oracle time.Duration // sequential-oracle (internal/seq) solves
}

// sample is what one operation reports.
type sample struct {
	queries int // queries answered: 1 per solve, the request count per daemon pass
	// check verifies the operation's answers after it is timed; it returns
	// the number of queries whose answer failed a check and the first
	// such failure.
	check  func() (failed int, fault error)
	failed int
	fault  error
	stats  congest.Stats
	// latencies are per-query client latencies in seconds, when an
	// operation is many queries.
	latencies []float64
	wireBytes int64 // bytes on the shard sockets
	frames    int64
	serve     *serveSample
}

// serveSample is the daemon's view of one pass.
type serveSample struct {
	elapsed       []float64  // server-reported solve time per request, seconds
	kindLatency   [3]float64 // summed client latency per request kind
	hits, lookups int64      // shared-cache counters over the pass (/v1/stats)
}

// opRecord is one measured operation.
type opRecord struct {
	raw, ref   float64 // seconds: the operation, and the mean of its two kernel runs
	peakHeap   float64 // largest GC-marked live heap the operation added
	gcCycles   float64 // GC cycles that ended during the operation
	allocBytes float64
	allocObjs  float64
	s          sample
	ls         *layerStats // non-nil for a traced operation
}

// factor converts this operation's raw times to the kernel's nominal speed.
func (r opRecord) factor() float64 { return refNominalS / r.ref }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// A shard worker re-executes this binary; it serves its session and
	// exits before any benchmark work.
	if ran, err := shard.MaybeWorker(); ran {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: decide-elim, optimize-dp, dmcd-mixed or sharded-k2")
	seed := flag.Int64("seed", 1, "workload seed (inputs are a function of it)")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.Parse()
	res, err := runBench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func runBench(name string, seed int64, window time.Duration, traced bool) (*result, error) {
	ctor, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	kernel, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	defer kernel.close()
	var spans *spanLog
	if traced {
		spans = newSpanLog()
	}

	// Set up three times, each with its warm-up operation and between two
	// kernel runs, and keep the last; set-up time is the median.
	const setups = 3
	var setupRaw, setupCorr, genS, oracleS []float64
	var w workload
	res := &result{}
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
		}
		w = ctor()
		runtime.GC()
		before := kernel.run()
		start := time.Now()
		st, err := w.setUp(seed)
		if err == nil {
			var warm sample
			if warm, err = w.run(nil); err == nil {
				// Warm-up queries are checked and counted like measured ones.
				failed, fault := warm.check()
				res.Attempted += warm.queries
				res.Failed += failed
				if fault != nil {
					fmt.Fprintln(os.Stderr, "warm-up fault:", fault)
				}
			}
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		raw := time.Since(start).Seconds()
		runtime.GC()
		after := kernel.run()
		setupRaw = append(setupRaw, raw)
		setupCorr = append(setupCorr, raw*refNominalS/((before+after)/2))
		genS = append(genS, st.gen.Seconds())
		oracleS = append(oracleS, st.oracle.Seconds())
	}
	defer w.close()

	countersAgree := true
	var ops []opRecord
	deadline := time.Now().Add(window)
	for try := 0; try < 2 || time.Now().Before(deadline); try++ {
		withTrace := traced && try%2 == 1
		var ls *layerStats
		if withTrace {
			ls = &layerStats{spans: spans, parent: spans.begin("op.traced", -1)}
		}
		rec, err := measure(kernel, w, ls)
		if ls != nil {
			spans.end(ls.parent)
		}
		if err != nil {
			res.Attempted++
			res.Failed++
			fmt.Fprintln(os.Stderr, "operation error:", err)
			continue
		}
		res.Attempted += rec.s.queries
		res.Failed += rec.s.failed
		if rec.s.fault != nil {
			fmt.Fprintln(os.Stderr, "operation fault:", rec.s.fault)
		}
		if ls != nil {
			ls.parent = spans.begin("replica", -1)
			err := w.replica(ls)
			spans.end(ls.parent)
			if err != nil {
				res.Attempted++
				res.Failed++
				fmt.Fprintln(os.Stderr, "replica fault:", err)
			}
		}
		if len(ops) > 0 && rec.s.failed == 0 && ops[0].s.failed == 0 && checkCounters(rec.s.stats, ops[0].s.stats) != nil {
			// The CONGEST cost is a deterministic function of the inputs.
			countersAgree = false
			fmt.Fprintln(os.Stderr, "counters differ between operations on the same inputs")
		}
		ops = append(ops, rec)
	}
	res.Correct = res.Failed == 0 && countersAgree
	var plain []opRecord
	var tracedOps []opRecord
	for _, op := range ops {
		if op.ls != nil {
			tracedOps = append(tracedOps, op)
		} else {
			plain = append(plain, op)
		}
	}
	if len(plain) == 0 {
		return nil, fmt.Errorf("no operation completed")
	}
	corrected := endToEnd(plain, median(setupCorr), true)
	raw := endToEnd(plain, median(setupRaw), false)
	printSummary(name, seed, len(plain), corrected, raw)
	if !traced {
		res.Metrics = corrected
		for _, k := range reportedRaw[name] {
			res.Metrics[k] = raw[k]
		}
		return res, nil
	}
	if len(tracedOps) == 0 {
		return nil, fmt.Errorf("no traced operation completed")
	}
	res.Metrics = perLayer(w, plain, tracedOps, median(genS), median(oracleS))
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.ndjson", name, seed))
	if err := spans.write(path); err != nil {
		return nil, err
	}
	return res, nil
}

// Heap counters read around each operation (runtime/metrics reads do not
// stop the world).
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mHeapLive   = "/gc/heap/live:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
)

func readMem() (allocBytes, allocObjs, live, cycles uint64) {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mHeapLive}, {Name: mGCCycles}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(), s[3].Value.Uint64()
}

// measure times one operation between two reference-kernel runs, with a
// forced GC before each so neither inherits the other's garbage.
func measure(kernel *refKernel, w workload, ls *layerStats) (opRecord, error) {
	runtime.GC()
	before := kernel.run()
	runtime.GC()
	a0, o0, h0, c0 := readMem()
	stop := sampleHeapPeak()
	start := time.Now()
	s, err := w.run(ls)
	raw := time.Since(start).Seconds()
	peak := stop()
	a1, o1, _, c1 := readMem()
	if err != nil {
		return opRecord{}, err
	}
	s.failed, s.fault = s.check()
	runtime.GC()
	after := kernel.run()
	rec := opRecord{
		raw: raw, ref: (before + after) / 2,
		allocBytes: float64(a1 - a0), allocObjs: float64(o1 - o0),
		gcCycles: float64(c1 - c0),
		s:        s, ls: ls,
	}
	if peak > h0 {
		rec.peakHeap = float64(peak - h0)
	}
	return rec, nil
}

// sampleHeapPeak polls the live heap every millisecond until the returned
// function is called, which returns the largest value seen. The live heap
// is what the last GC cycle marked and changes only when a cycle ends, so
// the result is the largest marked heap among the cycles that ended during
// the operation: a lower bound on the true peak, closer the more cycles
// ran (mem.gc_cycles reports how many). The polling only has to see every
// cycle's end. Unlike the heap's total object bytes, the live heap leaves
// out garbage not yet collected, whose amount depends on when the
// collector got to run, which on a loaded machine varied by 2x.
func sampleHeapPeak() func() uint64 {
	stop := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: mHeapLive}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var max uint64
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-stop:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-peak
	}
}

// reportedRaw lists, per workload, the end-to-end times reported without
// drift correction: those whose run-to-run spread, averaged over the sets
// of ten runs in README.md, the correction widened. A dmcd-mixed pass keeps
// both cores busy while the kernel measures one.
var reportedRaw = map[string][]string{
	"dmcd-mixed": {"setup_s", "solve_s", "throughput_qps"},
}

// endToEnd computes the user-visible metrics from the untraced operations,
// with times drift-corrected or raw.
func endToEnd(ops []opRecord, setupS float64, corrected bool) map[string]metric {
	var times, qps, lat, heap, alloc []float64
	for _, op := range ops {
		f := 1.0
		if corrected {
			f = op.factor()
		}
		c := op.raw * f
		times = append(times, c)
		qps = append(qps, float64(op.s.queries)/c)
		heap = append(heap, op.peakHeap)
		alloc = append(alloc, op.allocBytes)
		if op.s.latencies == nil {
			lat = append(lat, c) // the operation is one query
		}
		for _, l := range op.s.latencies {
			lat = append(lat, l*f)
		}
	}
	st := ops[0].s.stats
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"solve_s":        {median(times), "s"},
		"peak_heap_mb":   {median(heap) / 1e6, "MB"},
		"alloc_mb":       {median(alloc) / 1e6, "MB"},
		"rounds":         {float64(st.Rounds), "count"},
		"messages":       {float64(st.Messages), "count"},
		"bits":           {float64(st.Bits), "bit"},
		"throughput_qps": {median(qps), "1/s"},
		"latency_p50_ms": {quantile(lat, 0.5) * 1000, "ms"},
	}
}

// printSummary writes a human-readable table of the end-to-end metrics,
// drift-corrected and raw, and each set as a JSON line for steady.py.
func printSummary(name string, seed int64, n int, corrected, raw map[string]metric) {
	keys := make([]string, 0, len(corrected))
	for k := range corrected {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("# %s seed=%d operations=%d GOMAXPROCS=%d\n", name, seed, n, runtime.GOMAXPROCS(0))
	fmt.Printf("#   %-16s %14s %14s\n", "metric", "corrected", "raw")
	for _, k := range keys {
		fmt.Printf("#   %-16s %14.6g %14.6g %s\n", k, corrected[k].Value, raw[k].Value, corrected[k].Unit)
	}
	for _, set := range []struct {
		tag string
		m   map[string]metric
	}{{"corrected", corrected}, {"raw", raw}} {
		if line, err := json.Marshal(set.m); err == nil {
			fmt.Printf("# %s %s\n", set.tag, line)
		}
	}
}
