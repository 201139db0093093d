package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"multival"
	"multival/internal/imc"
	"multival/internal/markov"
	"multival/internal/serve"
	"multival/internal/sweep"
	"multival/internal/xstream"
)

// rate-sweep: served parameter sweeps over the fame and xstream families.
// Set-up starts the server and runs a sweep of every class, lumped and
// not, which fills the family and functional cache layers. Each op is one POST
// /v1/sweeps grid: a rate axis whose fresh values force perf rebuilds,
// crossed with a longer measure axis (transient times "at", 0 = steady
// state; fame points also ask the mean first-passage time to a round)
// that re-solves on the cached perf models. Half of the grids lump, half
// do not. A state is a CTMC state of a solved point.

// sweepClass is a family plus its structural parameters; the rate axis
// and the fixed rates are drawn per grid.
type sweepClass struct {
	family   string
	params   map[string]any
	rateAxis string
}

var (
	xstream1 = sweepClass{"xstream", map[string]any{"stages": 1, "capacity": 8}, "mu"}
	xstream2 = sweepClass{"xstream", map[string]any{"stages": 2, "capacity": 6}, "mu"}
	xstream3 = sweepClass{"xstream", map[string]any{"stages": 3, "capacity": 4}, "mu"}
	fame4    = sweepClass{"fame", map[string]any{"nodes": 4, "topology": "ring", "protocol": "msi", "mode": "eager"}, "tbase"}
	fame8    = sweepClass{"fame", map[string]any{"nodes": 8, "topology": "mesh", "protocol": "mesi", "mode": "rendezvous"}, "tbase"}
)

// sweepPass is one pass of the op mix: 20 grids, half of them lumped,
// stratified by cost so that the median falls in the middle of a block
// of ~7 ms grids (35-80% of the sorted latencies) and the 90th percentile
// in the middle of the ~18 ms lumped xstream3 and fame8 grids (the top
// 20%). Lumping costs several times the rest of a grid on the larger
// classes, so which grids lump sets the shape of the distribution.
var sweepPass = []struct {
	class sweepClass
	lump  bool
	count int
}{
	{xstream1, false, 2}, {xstream1, true, 1}, {fame4, false, 1}, {xstream2, false, 1}, {fame8, false, 2},
	{fame4, true, 3}, {xstream3, false, 4}, {xstream2, true, 2},
	{xstream3, true, 2}, {fame8, true, 2},
}

const sweepPassLen = 20

// sweepCacheEntries bounds the server's artifact cache well above what
// one pass of grids creates, so the family and functional entries set-up
// warms stay resident.
const sweepCacheEntries = 1024

// sweepOp is one generated grid.
type sweepOp struct {
	Family string           `json:"family"`
	Params map[string]any   `json:"params"`
	Grid   map[string][]any `json:"grid"`
	Lump   bool             `json:"lump"`
}

func (o sweepOp) request() serve.SweepRequest {
	lump := o.Lump
	return serve.SweepRequest{
		Family:      o.Family,
		Params:      o.Params,
		Grid:        o.Grid,
		Lump:        &lump,
		Concurrency: 1,
		Workers:     engineWorkers,
	}
}

// genSweepOp draws one grid of class c: two rate points crossed with six
// measure points (the steady state and five transient times).
func genSweepOp(rng *rand.Rand, c sweepClass, lump bool) sweepOp {
	params := map[string]any{}
	for k, v := range c.params {
		params[k] = v
	}
	switch c.family {
	case "xstream":
		params["lambda"] = 0.5 + rng.Float64()/2
	case "fame":
		params["thop"] = 0.25 + rng.Float64()/2
	}
	r1 := 1 + rng.Float64()
	r2 := r1 + 0.25 + rng.Float64()
	at := []any{0.0}
	for _, t := range []float64{2, 5, 10, 20, 40} {
		at = append(at, t*(1+rng.Float64()/10))
	}
	return sweepOp{
		Family: c.family,
		Params: params,
		Grid:   map[string][]any{c.rateAxis: {r1, r2}, "at": at},
		Lump:   lump,
	}
}

func genSweepOps(seed int64, n int) []sweepOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []sweepOp
	for len(ops) < n {
		var pass []sweepOp
		for _, c := range sweepPass {
			for k := 0; k < c.count; k++ {
				pass = append(pass, genSweepOp(rng, c.class, c.lump))
			}
		}
		rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		ops = append(ops, pass...)
	}
	return ops[:n]
}

type sweepRun struct {
	ops []sweepOp
	servedLog
}

func newSweepRun(seed int64, n int) (workload, error) {
	return &sweepRun{ops: genSweepOps(seed, n)}, nil
}

func (r *sweepRun) inputs() any { return r.ops }

// warmOps are set-up's sweeps: every class, lumped and not, over the
// full measure axis at rates no op draws (ops draw rate points below 3.25).
func warmOps() []sweepOp {
	var ops []sweepOp
	rng := rand.New(rand.NewSource(0))
	for _, c := range []sweepClass{xstream1, xstream2, xstream3, fame4, fame8} {
		for _, lump := range []bool{false, true} {
			o := genSweepOp(rng, c, lump)
			o.Grid[c.rateAxis] = []any{4.0}
			ops = append(ops, o)
		}
	}
	return ops
}

func (r *sweepRun) setup(ctx context.Context) error {
	r.srv.close()
	srv, err := startServer(sweepCacheEntries)
	if err != nil {
		return err
	}
	r.srv = srv
	for _, o := range warmOps() {
		if _, err := r.sweep(ctx, o); err != nil {
			return err
		}
	}
	return nil
}

func (r *sweepRun) sweep(ctx context.Context, o sweepOp) (*serve.SweepResponse, error) {
	var resp serve.SweepResponse
	if err := r.srv.post(ctx, "/v1/sweeps", o.request(), &resp); err != nil {
		return nil, err
	}
	if resp.Failed > 0 || resp.Completed != resp.GridPoints {
		return nil, fmt.Errorf("sweep %s: %d of %d points completed (%v)", o.Family, resp.Completed, resp.GridPoints, resp.ErrorCounts)
	}
	return &resp, nil
}

func (r *sweepRun) op(ctx context.Context, i int) (int, any, error) {
	resp, err := r.sweep(ctx, r.ops[i])
	if err != nil {
		return 0, nil, err
	}
	states := 0
	results := make([]*serve.Result, 0, len(resp.Results))
	for _, p := range resp.Results {
		if p.Result != nil {
			states += p.Result.CTMCStates
			results = append(results, p.Result)
		}
	}
	r.record(results...)
	return states, resp, nil
}

func (r *sweepRun) check(i int, answer any) error {
	return checkSweep(r.ops[i], answer.(*serve.SweepResponse))
}

// sweepTol is the relative tolerance of the sweep oracles.
const sweepTol = 1e-6

// checkSweep checks every point of a grid: single-stage xstream steady
// states against the analytic M/M/1/K occupancy, every other point
// against a direct library solve through the root Pipeline (no server,
// no cache, no lumping). The grid's points share one directly decorated
// model per rate point.
func checkSweep(o sweepOp, resp *serve.SweepResponse) error {
	fam, ok := sweep.Lookup(o.Family)
	if !ok {
		return fmt.Errorf("unknown family %q", o.Family)
	}
	points, err := sweep.Expand(fam, o.Params, o.Grid)
	if err != nil {
		return err
	}
	if len(resp.Results) != len(points) {
		return fmt.Errorf("sweep %s: %d results for %d points", o.Family, len(resp.Results), len(points))
	}
	perf := map[string]*multival.PerfModel{}
	for i, pt := range points {
		res := resp.Results[i].Result
		if res == nil {
			return fmt.Errorf("sweep %s point %d: no result", o.Family, i)
		}
		if o.Family == "xstream" && pt.Values.Int("stages") == 1 && pt.Values.Float("at") == 0 {
			k := pt.Values.Int("capacity")
			lambda, mu := pt.Values.Float("lambda"), pt.Values.Float("mu")
			pi := xstream.AnalyticOccupancy(xstream.PerfConfig{Capacity: k, ArrivalRate: lambda, ServiceRate: mu})
			if err := near("throughput(h1)", res.Throughputs["h1"], lambda*(1-pi[k])); err != nil {
				return fmt.Errorf("sweep xstream point %d: %w", i, err)
			}
			continue
		}
		if err := checkDirect(fam, pt, res, perf); err != nil {
			return fmt.Errorf("sweep %s point %d: %w", o.Family, i, err)
		}
	}
	return nil
}

func near(what string, got, want float64) error {
	if math.Abs(got-want) > sweepTol*math.Max(math.Abs(want), 1e-9) {
		return fmt.Errorf("%s = %.12g, want %.12g", what, got, want)
	}
	return nil
}

// checkDirect solves one grid point through the root Pipeline and
// compares every throughput and mean time of res with it. perf holds the
// decorated models of the grid's rate points, keyed by point values
// without the measure time.
func checkDirect(fam *sweep.Family, pt sweep.Point, res *serve.Result, perf map[string]*multival.PerfModel) error {
	inst, err := fam.Build(pt.Values)
	if err != nil {
		return err
	}
	ctx := context.Background()
	key := fmt.Sprint(inst.Rates)
	pm, ok := perf[key]
	if !ok {
		eng := multival.NewEngine(multival.WithWorkers(engineWorkers))
		var models []*multival.Model
		for _, c := range inst.Components {
			l, err := c.Build()
			if err != nil {
				return err
			}
			models = append(models, eng.FromLTS(l))
		}
		pm, err = eng.Compose(models...).Sync(inst.Sync...).Hide(inst.Hide...).
			DecorateGateRates(inst.Rates, inst.Markers...).Perf(ctx)
		if err != nil {
			return err
		}
		perf[key] = pm
	}
	var ms *multival.Measures
	if inst.At > 0 {
		ms, err = pm.Transient(ctx, inst.At)
	} else {
		ms, err = pm.SteadyState(ctx)
	}
	if err != nil {
		return err
	}
	if len(res.Throughputs) != len(ms.Throughputs) {
		return fmt.Errorf("%d throughputs, want %d", len(res.Throughputs), len(ms.Throughputs))
	}
	for label, thr := range ms.Throughputs {
		if err := near("throughput("+label+")", res.Throughputs[label], thr); err != nil {
			return err
		}
	}
	for _, label := range inst.MeanTimeTo {
		t, err := pm.MeanTimeTo(ctx, label)
		if err != nil {
			return err
		}
		if err := near("mean time to "+label, res.MeanTimes[label], t); err != nil {
			return err
		}
	}
	return nil
}

// sweepReplay mirrors the server's cache layers in process: family
// components and functional models are built once (in the replayed
// set-up), perf models and their extractions once per rate point of a
// grid (no two grids share rates), and every point is solved.
type sweepReplay struct {
	eng  *multival.Engine
	fn   map[string]*multival.Model
	perf map[string]*perfEntry // the current grid's rate points
}

type perfEntry struct {
	pm  *multival.PerfModel
	res *imc.CTMCResult
}

func (r *sweepRun) replay(ctx context.Context, tr *tracer) error {
	rp := &sweepReplay{
		eng: multival.NewEngine(multival.WithWorkers(engineWorkers)),
		fn:  map[string]*multival.Model{},
	}
	for i, o := range warmOps() {
		if err := tr.opSpan(fmt.Sprintf("setup-%d", i), func() error { return rp.grid(ctx, tr, o) }); err != nil {
			return err
		}
	}
	for i, o := range r.ops {
		if err := tr.opSpan(fmt.Sprintf("op-%d", i), func() error { return rp.grid(ctx, tr, o) }); err != nil {
			return err
		}
	}
	return nil
}

// grid replays one sweep: expansion and instance resolution (sweep
// layer), then every point through the memoized layers.
func (rp *sweepReplay) grid(ctx context.Context, tr *tracer, o sweepOp) error {
	var insts []*sweep.Instance
	if err := tr.call("sweep", func() error {
		fam, ok := sweep.Lookup(o.Family)
		if !ok {
			return fmt.Errorf("unknown family %q", o.Family)
		}
		points, err := sweep.Expand(fam, o.Params, o.Grid)
		if err != nil {
			return err
		}
		for _, pt := range points {
			inst, err := fam.Build(pt.Values)
			if err != nil {
				return err
			}
			insts = append(insts, inst)
		}
		return nil
	}); err != nil {
		return err
	}
	tr.add("sweep.points", float64(len(insts)))
	rp.perf = map[string]*perfEntry{}
	for _, inst := range insts {
		if err := rp.point(ctx, tr, inst, o.Lump); err != nil {
			return err
		}
	}
	return nil
}

func (rp *sweepReplay) point(ctx context.Context, tr *tracer, inst *sweep.Instance, lump bool) error {
	var keys []string
	for _, c := range inst.Components {
		keys = append(keys, c.Key)
	}
	fkey := fmt.Sprint(keys, inst.Sync, inst.Hide, inst.Minimize)
	fm, ok := rp.fn[fkey]
	if !ok {
		var err error
		if fm, err = rp.functional(ctx, tr, inst); err != nil {
			return err
		}
		rp.fn[fkey] = fm
	}
	pkey := fmt.Sprint(inst.Rates, inst.Markers)
	pe, ok := rp.perf[pkey]
	if !ok {
		pm, err := traceDecorate(ctx, tr, rp.eng.Compose(fm).DecorateGateRates(inst.Rates, inst.Markers...), lump)
		if err != nil {
			return err
		}
		res, err := traceExtract(ctx, tr, pm)
		if err != nil {
			return err
		}
		pe = &perfEntry{pm: pm, res: res}
		rp.perf[pkey] = pe
	}
	if err := traceMeasure(tr, pe.res, inst.At); err != nil {
		return err
	}
	for _, label := range inst.MeanTimeTo {
		if err := traceMarkov(tr, func(markov.SolveOptions) error {
			_, err := pe.pm.MeanTimeTo(ctx, label)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// functional builds an instance's components (sweep layer: the family
// builds) and their product (compose layer).
func (rp *sweepReplay) functional(ctx context.Context, tr *tracer, inst *sweep.Instance) (*multival.Model, error) {
	var models []*multival.Model
	if err := tr.call("sweep", func() error {
		for _, c := range inst.Components {
			l, err := c.Build()
			if err != nil {
				return err
			}
			models = append(models, rp.eng.FromLTS(l))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if len(models) == 1 && len(inst.Hide) == 0 && inst.Minimize == "" {
		return models[0], nil
	}
	var fm *multival.Model
	err := tr.call("compose", func() error {
		var err error
		fm, err = rp.eng.Compose(models...).Sync(inst.Sync...).Hide(inst.Hide...).Model(ctx)
		return err
	})
	if err == nil {
		tr.add("compose.states", float64(fm.States()))
	}
	return fm, err
}

func (r *sweepRun) layerMetrics(tr *tracer, lat []time.Duration) map[string]float64 {
	return r.servedLog.metrics(tr, lat)
}

func (r *sweepRun) close() { r.srv.close() }
