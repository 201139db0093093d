package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloadSpec names a workload and sizes its op list.
type workloadSpec struct {
	name string
	// passLen is the length of one pass of the workload's stratified op
	// mix; opsPerSecond is the fixed rate that turns -seconds into whole
	// passes (see opsFor).
	passLen      int
	opsPerSecond float64
	// procs pins GOMAXPROCS. The in-process workloads run on one thread,
	// as on a single-core runner: their small heaps go through hundreds
	// of GC cycles a second, and with two threads every cycle's
	// stop-the-world phases stall whenever the host preempts either
	// virtual CPU, which on a shared 2-vCPU machine swung wall times by 2x
	// while CPU time moved 10%. The served workloads get two threads, so
	// the in-process client runs beside the server as a separate client
	// process would.
	procs int
	// newRun generates the seeded inputs of an n-op run.
	newRun func(seed int64, n int) (workload, error)
}

// workloads is the registry, keyed by the -workload name.
var workloads = map[string]*workloadSpec{
	"faust-router":   {name: "faust-router", passLen: faustPassLen, opsPerSecond: 6.5, procs: 1, newRun: newFaustRun},
	"cold-solve":     {name: "cold-solve", passLen: coldPassLen, opsPerSecond: 7, procs: 2, newRun: newColdRun},
	"rate-sweep":     {name: "rate-sweep", passLen: sweepPassLen, opsPerSecond: 100, procs: 2, newRun: newSweepRun},
	"compose-reduce": {name: "compose-reduce", passLen: composePassLen, opsPerSecond: 7, procs: 1, newRun: newComposeRun},
}

// workload is one seeded run of a workload: its generated inputs plus the
// program state set-up built.
type workload interface {
	// inputs returns the generated op list (what the program receives).
	inputs() any
	// setup performs the program's one-time work before the timed
	// phase on fresh state, discarding any state an earlier call built.
	setup(ctx context.Context) error
	// op runs op i through the program's public entry points. It returns
	// the number of states the op processed and the answer the oracle
	// checks.
	op(ctx context.Context, i int) (states int, answer any, err error)
	// check is the oracle for op i.
	check(i int, answer any) error
	// replay re-runs set-up and every op through the layers' public
	// functions, one span per call.
	replay(ctx context.Context, tr *tracer) error
	// layerMetrics adds the workload's own per-layer metrics once the
	// replay is done; lat holds the untraced per-op latencies.
	layerMetrics(tr *tracer, lat []time.Duration) map[string]float64
	close()
}

// timedPhase is implemented by workloads that snapshot program counters
// around the timed phase (the served ones read /v1/stats).
type timedPhase interface {
	beginTimed(ctx context.Context) error
	endTimed(ctx context.Context) error
}

// execute runs one workload end to end and assembles its result.
func execute(ctx context.Context, spec *workloadSpec, seed int64, n int, traced bool, traceDir string, log io.Writer) (*result, error) {
	w, err := spec.newRun(seed, n)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	defer w.close()

	// Set-up runs at least setupReps times and until setupMinTotal has
	// passed (short set-ups are repeated more, so their median is
	// steady); the traced run needs it once.
	var setups []float64
	var spent float64
	for len(setups) < setupReps || (spent < setupMinTotal && len(setups) < setupMaxReps) {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
		if traced {
			break
		}
	}

	ph, err := timedRun(ctx, w, n)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: n, Failed: ph.failed, Correct: ph.failed == 0, Metrics: map[string]metric{}}
	if !traced {
		fillEndToEnd(res.Metrics, ph, setups, spec.passLen)
		return res, nil
	}

	runtime.GC()
	tr := newTracer()
	if err := w.replay(ctx, tr); err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	if err := tr.writeFile(traceDir, fmt.Sprintf("%s-seed%d.json", spec.name, seed)); err != nil {
		fmt.Fprintf(log, "perfbench: writing spans: %v\n", err)
	}
	vals, total := layerValues(tr, ph, w.layerMetrics(tr, ph.lat))
	rows := tr.table()
	if self := vals["serve.self_s"]; self > 0 {
		rows["serve"] = &layerRow{calls: int(vals["serve.calls"]), self: self}
	}
	printTable(log, rows, total)
	if share := vals["serve.stages.decorate_share"]; share > 0 {
		fmt.Fprintf(log, "decorate+extract share of engine time: %.3f replayed, %.3f from the server's stages blocks\n",
			vals["imc.decorate_extract.engine_share"], share)
	}
	fmt.Fprintf(log, "tracing overhead: %.3f s (traced %.3f s, untraced %.3f s)\n",
		vals["trace.overhead_s"], vals["trace.traced_s"], vals["trace.untraced_s"])
	for _, m := range perLayerCatalog() {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res, nil
}

// phase is what the untraced timed phase measured, per op: latency,
// process CPU, states processed (0 for a failed op) and the largest live
// heap any garbage collection marked while the op ran.
type phase struct {
	lat    []time.Duration
	cpu    []time.Duration
	states []int
	heap   []uint64
	failed int
	allocs uint64
	gcCPU  float64 // fraction of process CPU spent in the garbage collector
}

var runtimeSamples = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// timedRun is the closed loop: one client, ops in list order, each op
// timed alone; the oracle runs between ops, outside the timing.
func timedRun(ctx context.Context, w workload, n int) (*phase, error) {
	ph := &phase{lat: make([]time.Duration, n), cpu: make([]time.Duration, n), states: make([]int, n), heap: make([]uint64, n)}
	tp, _ := w.(timedPhase)
	if tp != nil {
		if err := tp.beginTimed(ctx); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	before := readRuntime()
	heap := newHeapSampler()
	defer heap.stop()
	for i := 0; i < n; i++ {
		c0 := cpuTime()
		t0 := time.Now()
		states, answer, err := w.op(ctx, i)
		ph.lat[i] = time.Since(t0)
		ph.cpu[i] = cpuTime() - c0
		ph.heap[i] = max(heap.take(), readRuntime()[0].Value.Uint64())
		if err == nil {
			err = w.check(i, answer)
		}
		if err != nil {
			ph.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
			continue
		}
		ph.states[i] = states
	}
	after := readRuntime()
	ph.allocs = after[1].Value.Uint64() - before[1].Value.Uint64()
	if total := after[3].Value.Float64() - before[3].Value.Float64(); total > 0 {
		ph.gcCPU = (after[2].Value.Float64() - before[2].Value.Float64()) / total
	}
	if tp != nil {
		if err := tp.endTimed(ctx); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fillEndToEnd derives the end-to-end metrics. The op list is whole
// passes of one stratified mix, so every pass does the same kind of
// work: throughput, CPU and peak heap are taken per pass and the median
// pass is reported, which a burst of contention on a shared machine
// moves less than a whole-run total. cpu_s is the median pass's CPU
// times the number of passes; peak_heap_mb the median of the per-pass
// largest live heaps.
func fillEndToEnd(m map[string]metric, ph *phase, setups []float64, passLen int) {
	n := len(ph.lat)
	var rates, cpus, peaks []float64
	for lo := 0; lo < n; lo += passLen {
		hi := min(lo+passLen, n)
		var wall, cpu time.Duration
		states, peak := 0, uint64(0)
		for i := lo; i < hi; i++ {
			wall += ph.lat[i]
			cpu += ph.cpu[i]
			states += ph.states[i]
			peak = max(peak, ph.heap[i])
		}
		rates = append(rates, float64(states)/wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		peaks = append(peaks, float64(peak)/(1<<20))
	}
	m["setup_s"] = metric{median(setups), "s"}
	m["states_per_s"] = metric{median(rates), "1/s"}
	m["latency_p50_ms"] = metric{percentileMS(ph.lat, 0.50), "ms"}
	if n >= minPercentileSamples {
		m["latency_p90_ms"] = metric{percentileMS(ph.lat, 0.90), "ms"}
	}
	m["cpu_s"] = metric{median(cpus) * float64(len(cpus)), "s"}
	m["peak_heap_mb"] = metric{median(peaks), "MB"}
	m["ok_ratio"] = metric{float64(n-ph.failed) / float64(n), "ratio"}
}

// percentileMS is the nearest-rank percentile of the latencies, in ms.
func percentileMS(lat []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	return float64(s[max(rank, 1)-1]) / float64(time.Millisecond)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

type metricDef struct{ name, unit string }

// perLayerCatalog lists every per-layer metric a traced run prints, on
// every workload (zero where the workload does not reach the layer).
func perLayerCatalog() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out,
			metricDef{l + ".calls", "count"},
			metricDef{l + ".self_s", "s"},
			metricDef{l + ".share", "ratio"},
			metricDef{l + ".alloc_mb", "MB"})
	}
	return append(out,
		metricDef{"uncovered.self_s", "s"},
		metricDef{"uncovered.share", "ratio"},
		metricDef{"process.states", "count"},
		metricDef{"process.states_per_s", "1/s"},
		metricDef{"compose.states", "count"},
		metricDef{"compose.states_per_s", "1/s"},
		metricDef{"bisim.states", "count"},
		metricDef{"bisim.states_per_s", "1/s"},
		metricDef{"bisim.rounds", "count"},
		metricDef{"bisim.reduction", "ratio"},
		metricDef{"aut.mb_per_s", "MB/s"},
		metricDef{"imc.extract.vanishing_ratio", "ratio"},
		metricDef{"imc.lump.reduction", "ratio"},
		metricDef{"markov.iterations", "count"},
		metricDef{"markov.fallbacks", "count"},
		metricDef{"serve.cache_hits", "count"},
		metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"serve.builds.family", "count"},
		metricDef{"serve.builds.functional", "count"},
		metricDef{"serve.builds.perf", "count"},
		metricDef{"serve.builds.measure", "count"},
		metricDef{"serve.builds.check", "count"},
		metricDef{"serve.queue_wait_ms", "ms"},
		metricDef{"serve.overhead_ms_p50", "ms"},
		metricDef{"serve.stages.decorate_share", "ratio"},
		metricDef{"imc.decorate_extract.engine_share", "ratio"},
		metricDef{"sweep.points", "count"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.gc_cpu_fraction", "ratio"},
		metricDef{"trace.spans", "count"},
		metricDef{"trace.untraced_s", "s"},
		metricDef{"trace.traced_s", "s"},
		metricDef{"trace.overhead_s", "s"},
	)
}

// layerValues turns the span table, the counts recorded at layer
// boundaries and the workload's own figures into per-layer metric
// values. It also returns the total self time the shares divide.
func layerValues(tr *tracer, ph *phase, extra map[string]float64) (map[string]float64, float64) {
	rows := tr.table()
	vals := map[string]float64{}
	for k, v := range tr.counts {
		vals[k] = v
	}
	for k, v := range extra {
		vals[k] = v
	}
	// The serve row is not a span: the replay runs the engine in
	// process, and the serve layer's self time is the HTTP round trip
	// minus the replayed engine time (supplied by the served workloads).
	total := vals["serve.self_s"]
	for _, r := range rows {
		total += r.self
	}
	for _, l := range layers {
		if r := rows[l]; r != nil {
			vals[l+".calls"] = float64(r.calls)
			vals[l+".self_s"] = r.self
			vals[l+".alloc_mb"] = r.alloc / (1 << 20)
		}
		if total > 0 {
			vals[l+".share"] = vals[l+".self_s"] / total
		}
	}
	if r := rows[rootSpan]; r != nil {
		vals["uncovered.self_s"] = r.self
		if total > 0 {
			vals["uncovered.share"] = r.self / total
		}
	}
	rate := func(count, layer string) float64 {
		if s := vals[layer+".self_s"]; s > 0 {
			return vals[count] / s
		}
		return 0
	}
	vals["process.states_per_s"] = rate("process.states", "process")
	vals["compose.states_per_s"] = rate("compose.states", "compose")
	vals["bisim.states_per_s"] = rate("bisim.states", "bisim")
	if vals["bisim.states"] > 0 {
		vals["bisim.reduction"] = vals["bisim.blocks"] / vals["bisim.states"]
	}
	vals["aut.mb_per_s"] = rate("aut.mb", "aut")
	if vals["imc.extract.states_in"] > 0 {
		vals["imc.extract.vanishing_ratio"] = 1 - vals["imc.extract.states_out"]/vals["imc.extract.states_in"]
	}
	if vals["imc.lump.states_in"] > 0 {
		vals["imc.lump.reduction"] = vals["imc.lump.states_out"] / vals["imc.lump.states_in"]
	}
	if e := vals["imc.decorate.self_s"] + vals["imc.extract.self_s"] + vals["imc.lump.self_s"] + vals["markov.self_s"]; e > 0 {
		vals["imc.decorate_extract.engine_share"] = (vals["imc.decorate.self_s"] + vals["imc.extract.self_s"]) / e
	}
	vals["runtime.alloc_mb"] = float64(ph.allocs) / (1 << 20)
	vals["runtime.gc_cpu_fraction"] = ph.gcCPU
	var untraced, traced float64
	for _, l := range ph.lat {
		untraced += l.Seconds()
	}
	for _, s := range tr.spans {
		if s.Parent < 0 && strings.HasPrefix(s.Op, "op-") {
			traced += s.dur()
		}
	}
	vals["trace.spans"] = float64(len(tr.spans))
	vals["trace.untraced_s"] = untraced
	vals["trace.traced_s"] = traced
	vals["trace.overhead_s"] = traced - untraced
	return vals, total
}
