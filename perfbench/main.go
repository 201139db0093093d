// Command perfbench is the repository's benchmark. It runs one named
// workload of the Multival flow from a seed, checks every answer against
// an oracle that does not share the timed code path, and prints one JSON
// result line:
//
//	perfbench -workload faust-router -seed 1 -seconds 15 -trace 0
//
// run.sh (bash perfbench/run.sh --workload ... from the repository root)
// builds it from the tree it sits in and runs it.
//
// With -trace 0 the run measures the end-to-end metrics: the program is
// driven only through its public entry points (the root Pipeline/Engine,
// faust.RouterLTS, an in-process serve.Server on loopback), with one
// closed-loop client, over a fixed seeded op list run to completion.
// With -trace 1 the same untraced phase runs first, then every op of the
// same list is replayed through the layers' public functions with one
// span per call, and the result carries the per-layer metrics instead.
//
// The op-list length is fixed per requested second (see opsFor), so a
// run does the same work on every commit and finishes in about -seconds
// on the reference machine (2 cores).
//
// Each workload is built so that one layer does most of its work and the
// same layer does almost none on another workload (its control):
//
//	faust-router    process (generation)           control for imc, markov, serve
//	cold-solve      imc.decorate + imc.extract     control for process, compose, bisim
//	rate-sweep      markov, serve, imc.lump        markov's share is ~5x cold-solve's
//	compose-reduce  bisim + compose                control: cold-solve
//
// Which end-to-end metric each layer metric should move:
//
//	process.states_per_s         faust-router states_per_s, latency_p50_ms (unchanged on cold-solve)
//	mcl.calls                    faust-router latency_p50_ms (a small share)
//	compose.states_per_s         compose-reduce states_per_s
//	bisim.states_per_s, .rounds  compose-reduce latency_p50_ms (a minor share on faust-router)
//	aut.mb_per_s                 cold-solve setup_s
//	imc.extract.vanishing_ratio  cold-solve latency_p50_ms, latency_p90_ms, cpu_s, peak_heap_mb;
//	                             rate-sweep at perf-cache misses
//	imc.lump.reduction           rate-sweep latency_p90_ms, compose-reduce latency_p50_ms
//	markov.iterations, .fallbacks rate-sweep latency_p50_ms, latency_p90_ms (~3% on cold-solve)
//	serve.cache_hit_ratio,       rate-sweep latency_p50_ms (cold-solve misses every call, so a
//	serve.overhead_ms_p50        cache change should leave it unchanged)
//	sweep.points                 rate-sweep
//	runtime.alloc_mb, .gc_cpu_fraction  cpu_s and peak_heap_mb on every workload
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// engineWorkers pins the engine and server worker counts. One keeps the
// refinement, product generation and solvers on their sequential paths,
// so a run does not depend on how many cores the machine has spare.
const engineWorkers = 1

// Set-up is performed at least setupReps times per run and repeated
// until setupMinTotal seconds have passed (at most setupMaxReps times);
// setup_s is the median.
const (
	setupReps     = 3
	setupMinTotal = 1.0
	setupMaxReps  = 200
)

// minPercentileSamples is the least number of ops for which latency_p90_ms
// is reported: at least ten samples must lie beyond the 90th percentile.
const minPercentileSamples = 100

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name ("+strings.Join(workloadNames(), ", ")+")")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 15, "target length of the timed phase; sets the op-list length")
	trace := fs.Int("trace", 0, "1 replays the op list with per-layer spans and reports per-layer metrics")
	traceDir := fs.String("trace-dir", "", "directory the traced run writes its spans to (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(spec.procs)
	res, err := execute(context.Background(), spec, *seed, opsFor(spec, *seconds), *trace == 1, *traceDir, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", spec.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// opsFor is the op-list length of a run: whole passes of the workload's
// stratified op mix, as many as the workload's fixed rate asks for the
// requested seconds.
func opsFor(spec *workloadSpec, seconds int) int {
	passes := math.Ceil(spec.opsPerSecond * float64(seconds) / float64(spec.passLen))
	return max(1, int(passes)) * spec.passLen
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the one JSON line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
