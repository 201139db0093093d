package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"multival"
	"multival/internal/lts"
	"multival/internal/serve"
)

func TestInputsDeterministic(t *testing.T) {
	for _, name := range workloadNames() {
		spec := workloads[name]
		gen := func(seed int64) []byte {
			w, err := spec.newRun(seed, 2*spec.passLen)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			b, err := json.Marshal(w.inputs())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return b
		}
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
	}
}

func TestOpsForWholePasses(t *testing.T) {
	for _, spec := range workloads {
		for _, s := range []int{1, 10, 15, 60} {
			n, want := opsFor(spec, s), spec.opsPerSecond*float64(s)
			if n%spec.passLen != 0 || float64(n) < want || float64(n-spec.passLen) >= want {
				t.Errorf("%s: opsFor(%d) = %d, pass %d, rate %v", spec.name, s, n, spec.passLen, spec.opsPerSecond)
			}
		}
		if n := opsFor(spec, 15); n < minPercentileSamples {
			t.Errorf("%s: %d ops at 15 s, fewer than the %d a p90 needs", spec.name, n, minPercentileSamples)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricCatalog checks every emitted metric name and that
// BENCHMARK.json lists exactly the metrics the benchmark prints.
func TestMetricCatalog(t *testing.T) {
	var perLayer []string
	seen := map[string]bool{}
	for _, m := range perLayerCatalog() {
		if !metricName.MatchString(m.name) || seen[m.name] {
			t.Errorf("bad or duplicate per-layer metric %q", m.name)
		}
		seen[m.name] = true
		perLayer = append(perLayer, m.name)
	}
	e2e := map[string]metric{}
	fillEndToEnd(e2e, testPhase(minPercentileSamples), []float64{1}, 10)
	for name := range e2e {
		if !metricName.MatchString(name) {
			t.Errorf("bad end-to-end metric %q", name)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if !equalSets(wl, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", wl, workloadNames())
	}
	var names []string
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
		if got := e2e[m.Name].Unit; got != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q printed", m.Name, m.Unit, got)
		}
	}
	if !equalSets(names, sortedKeys(e2e)) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark prints %v", names, sortedKeys(e2e))
	}
	names = nil
	units := map[string]string{}
	for _, m := range perLayerCatalog() {
		units[m.name] = m.unit
	}
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q printed", m.Name, m.Unit, units[m.Name])
		}
	}
	if !equalSets(names, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the printed catalog")
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// testPhase is an n-op phase whose op i took i+1 ms.
func testPhase(n int) *phase {
	ph := &phase{lat: make([]time.Duration, n), cpu: make([]time.Duration, n), states: make([]int, n), heap: make([]uint64, n)}
	for i := range ph.lat {
		ph.lat[i] = time.Duration(i+1) * time.Millisecond
		ph.cpu[i], ph.states[i], ph.heap[i] = ph.lat[i], 1, 1<<20
	}
	return ph
}

func TestP90NeedsEnoughSamples(t *testing.T) {
	for _, n := range []int{minPercentileSamples - 1, minPercentileSamples} {
		m := map[string]metric{}
		fillEndToEnd(m, testPhase(n), []float64{1}, 10)
		if _, ok := m["latency_p90_ms"]; ok != (n >= minPercentileSamples) {
			t.Errorf("%d ops: p90 reported = %v", n, ok)
		}
	}
}

func TestRouterOracleRejectsCorruption(t *testing.T) {
	ctx := context.Background()
	r := &faustRun{eng: newFaustEngine()}
	o := routerOp{Ports: 2, Inputs: []int{0, 1}, Handshake: true}
	good := func() *routerAnswer {
		a, err := r.verify(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if err := checkRouter(o, good()); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	corrupt := map[string]func(*routerAnswer){
		"verdict":   func(a *routerAnswer) { a.misrouteFree = false },
		"minimized": func(a *routerAnswer) { a.minStates++ },
		"hash": func(a *routerAnswer) {
			// Same counts, one transition relabelled.
			b := lts.New("x")
			b.AddStates(a.l.NumStates())
			a.l.EachTransition(func(tr lts.Transition) {
				label := a.l.LabelName(tr.Label)
				if tr.Src == 0 && label != lts.Tau {
					label += "'"
				}
				b.AddTransition(tr.Src, label, tr.Dst)
			})
			a.l = b
		},
	}
	for what, f := range corrupt {
		a := good()
		f(a)
		if err := checkRouter(o, a); err == nil {
			t.Errorf("corrupted %s accepted", what)
		}
	}
}

func TestChainOracleRejectsCorruption(t *testing.T) {
	ctx := context.Background()
	c := genChain(rand.New(rand.NewSource(3)), 200)
	srv, err := startServer(coldCacheEntries)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	r := &coldRun{in: &coldInputs{Chains: []chainSpec{c}}, servedLog: servedLog{srv: srv}}
	var info serve.ModelInfo
	if err := srv.post(ctx, "/v1/models", []byte(c.Text), &info); err != nil {
		t.Fatal(err)
	}
	r.hashes = []string{info.Hash}
	o := solveOp{Go: 1.3, Hop: 0.4}
	res, err := r.solve(ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkChain(c, o, res); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	res.Throughputs["go !1"] *= 1 + 1e-4
	if err := checkChain(c, o, res); err == nil {
		t.Error("corrupted throughput accepted")
	}
	res.Throughputs["go !1"] /= 1 + 1e-4
	res.CTMCStates++
	if err := checkChain(c, o, res); err == nil {
		t.Error("corrupted state count accepted")
	}
}

func TestSweepOracleRejectsCorruption(t *testing.T) {
	ctx := context.Background()
	srv, err := startServer(0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	r := &sweepRun{servedLog: servedLog{srv: srv}}
	rng := rand.New(rand.NewSource(5))
	// The single-stage xstream and the fame classes cover both oracles.
	for i, c := range []sweepClass{xstream1, fame4, fame8} {
		o := genSweepOp(rng, c, i%2 == 0)
		resp, err := r.sweep(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSweep(o, resp); err != nil {
			t.Fatalf("%s: correct answer rejected: %v", c.family, err)
		}
		for i := range resp.Results {
			res := resp.Results[i].Result
			for label, v := range res.Throughputs {
				res.Throughputs[label] = v*(1+1e-4) + 1e-6
				if err := checkSweep(o, resp); err == nil {
					t.Errorf("%s point %d: corrupted throughput(%s) accepted", c.family, i, label)
				}
				res.Throughputs[label] = v
			}
			for label, v := range res.MeanTimes {
				res.MeanTimes[label] = v * (1 + 1e-4)
				if err := checkSweep(o, resp); err == nil {
					t.Errorf("%s point %d: corrupted mean time accepted", c.family, i)
				}
				res.MeanTimes[label] = v
			}
		}
	}
}

func TestTandemOracleRejectsCorruption(t *testing.T) {
	ctx := context.Background()
	r := &composeRun{eng: multival.NewEngine(multival.WithWorkers(engineWorkers))}
	for _, o := range []tandemOp{
		{Caps: []int{1, 2, 1, 2}, Lambda: 0.8, Mu: 1.1},
		{Caps: []int{1, 1, 1, 1}, Values: 2, Lambda: 0.8, Mu: 1.1},
	} {
		_, a, err := r.run(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkTandem(o, a); err != nil {
			t.Fatalf("%v: correct answer rejected: %v", o, err)
		}
		for label := range a.ms.Throughputs {
			a.ms.Throughputs[label] *= 1 + 1e-4
		}
		if err := checkTandem(o, a); err == nil {
			t.Errorf("%v: corrupted throughput accepted", o)
		}
		short := tandemOp{Caps: o.Caps[1:], Values: o.Values, Lambda: o.Lambda, Mu: o.Mu}
		_, b, err := r.run(ctx, short)
		if err != nil {
			t.Fatal(err)
		}
		a.min = b.min
		if err := checkTandem(o, a); err == nil {
			t.Errorf("%v: minimized model of a shorter tandem accepted", o)
		}
	}
}

// TestWorkloadsTiny runs every workload, untraced and traced, on a few
// ops.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ctx := context.Background()
	for _, name := range workloadNames() {
		spec := workloads[name]
		for _, traced := range []bool{false, true} {
			res, err := execute(ctx, spec, 11, 3, traced, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted != 3 || res.Failed != 0 {
				t.Errorf("%s traced=%v: %+v", name, traced, res)
			}
			want := []string{"setup_s", "states_per_s", "latency_p50_ms", "cpu_s", "peak_heap_mb", "ok_ratio"}
			if traced {
				want = nil
				for _, m := range perLayerCatalog() {
					want = append(want, m.name)
				}
			}
			for _, m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m)
				}
			}
			if _, ok := res.Metrics["latency_p90_ms"]; ok {
				t.Errorf("%s: p90 reported from 3 ops", name)
			}
		}
	}
}
