package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"multival"
	"multival/internal/aut"
	"multival/internal/imc"
	"multival/internal/lts"
	"multival/internal/markov"
	"multival/internal/serve"
)

// cold-solve: served cold performance queries. Set-up starts the server
// and uploads every chain through POST /v1/models; each op is one POST
// /v1/solve by model_hash with rates no other op uses, so every call
// misses the perf cache (lump off). A state is an input-model state.
//
// Each chain is circulant: tangible state i moves to i+1 on "go" and to
// i+s1, i+s2 on "hop" (mod n). Every state has the same exit and entry
// rate whatever the gate rates, so the tangible CTMC's stationary law is
// uniform, and the throughput of the marked label "go !b" is the go rate
// times the fraction of states labelled b. Every go move passes through
// an interactive state (an internal step), which extraction eliminates.

// chainSizes are the tangible sizes of the uploaded chains; each pass
// solves every chain twice, so the median and the 90th percentile fall
// inside the blocks of the 20k and 30k chains.
var chainSizes = []int{10_000, 15_000, 20_000, 25_000, 30_000}

const coldPassLen = 10

// coldCacheEntries bounds the server's artifact cache: every op misses
// it anyway, and a small bound keeps the resident set from depending on
// which chains the last ops solved.
const coldCacheEntries = 4

// chainSpec is one generated chain: its size, hop strides, and which
// tangible states label their go move "go !1".
type chainSpec struct {
	N    int    `json:"n"`
	S1   int    `json:"s1"`
	S2   int    `json:"s2"`
	Ones int    `json:"ones"`
	Text string `json:"aut"`
}

// solveOp is one generated op: a chain and its gate rates.
type solveOp struct {
	Chain int     `json:"chain"`
	Go    float64 `json:"go"`
	Hop   float64 `json:"hop"`
}

type coldInputs struct {
	Chains []chainSpec `json:"chains"`
	Ops    []solveOp   `json:"ops"`
}

func genChain(rng *rand.Rand, n int) chainSpec {
	c := chainSpec{N: n, S1: 2 + rng.Intn(n/2-2), S2: n/2 + rng.Intn(n/2-2)}
	l := lts.New(fmt.Sprintf("circulant-%d", n))
	l.AddStates(2 * n)
	for i := 0; i < n; i++ {
		b := rng.Intn(2)
		c.Ones += b
		l.AddTransition(lts.State(i), fmt.Sprintf("go !%d", b), lts.State(n+i))
		l.AddTransition(lts.State(n+i), lts.Tau, lts.State((i+1)%n))
		l.AddTransition(lts.State(i), "hop", lts.State((i+c.S1)%n))
		l.AddTransition(lts.State(i), "hop", lts.State((i+c.S2)%n))
	}
	c.Text = aut.WriteString(l)
	return c
}

func genColdInputs(seed int64, n int) *coldInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &coldInputs{}
	for _, size := range chainSizes {
		in.Chains = append(in.Chains, genChain(rng, size))
	}
	for len(in.Ops) < n {
		var pass []solveOp
		for rep := 0; rep < coldPassLen/len(chainSizes); rep++ {
			for c := range chainSizes {
				pass = append(pass, solveOp{Chain: c, Go: 1 + rng.Float64(), Hop: 0.25 + rng.Float64()/2})
			}
		}
		rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		in.Ops = append(in.Ops, pass...)
	}
	in.Ops = in.Ops[:n]
	return in
}

type coldRun struct {
	in     *coldInputs
	hashes []string
	servedLog
}

func newColdRun(seed int64, n int) (workload, error) {
	return &coldRun{in: genColdInputs(seed, n)}, nil
}

func (r *coldRun) inputs() any { return r.in }

// warmupSolve is set-up's untimed solve; its rates lie outside the
// ranges ops draw from, so no op hits what it caches.
var warmupSolve = solveOp{Chain: 0, Go: 3, Hop: 1}

func (r *coldRun) setup(ctx context.Context) error {
	r.srv.close()
	srv, err := startServer(coldCacheEntries)
	if err != nil {
		return err
	}
	r.srv = srv
	r.hashes = r.hashes[:0]
	for _, c := range r.in.Chains {
		var info serve.ModelInfo
		if err := srv.post(ctx, "/v1/models", []byte(c.Text), &info); err != nil {
			return err
		}
		r.hashes = append(r.hashes, info.Hash)
	}
	_, err = r.solve(ctx, warmupSolve)
	return err
}

func (r *coldRun) solve(ctx context.Context, o solveOp) (*serve.Result, error) {
	lump := false
	var res serve.Result
	err := r.srv.post(ctx, "/v1/solve", serve.SolveRequest{
		ModelHash: r.hashes[o.Chain],
		Rates:     map[string]float64{"go": o.Go, "hop": o.Hop},
		Markers:   []string{"go"},
		Lump:      &lump,
	}, &res)
	return &res, err
}

func (r *coldRun) op(ctx context.Context, i int) (int, any, error) {
	o := r.in.Ops[i]
	res, err := r.solve(ctx, o)
	if err != nil {
		return 0, nil, err
	}
	r.record(res)
	return 2 * r.in.Chains[o.Chain].N, res, nil
}

func (r *coldRun) check(i int, answer any) error {
	o := r.in.Ops[i]
	return checkChain(r.in.Chains[o.Chain], o, answer.(*serve.Result))
}

// chainTol is the relative tolerance of the closed-form check (the
// solver converges to 1e-12).
const chainTol = 1e-6

// checkChain compares a solve with the closed form: n tangible states,
// and throughput(go !b) = go rate x (states labelled b)/n.
func checkChain(c chainSpec, o solveOp, res *serve.Result) error {
	if res.CTMCStates != c.N {
		return fmt.Errorf("chain %d: %d CTMC states, want %d", c.N, res.CTMCStates, c.N)
	}
	for b, count := range []int{c.N - c.Ones, c.Ones} {
		label := fmt.Sprintf("go !%d", b)
		want := o.Go * float64(count) / float64(c.N)
		if got := res.Throughputs[label]; math.Abs(got-want) > chainTol*o.Go {
			return fmt.Errorf("chain %d: throughput(%s) = %.12g, want %.12g", c.N, label, got, want)
		}
	}
	return nil
}

// replay re-runs the uploads (aut parse, freeze and hash) and every
// solve (decoration, extraction, steady-state solve) in process.
func (r *coldRun) replay(ctx context.Context, tr *tracer) error {
	eng := multival.NewEngine(multival.WithWorkers(engineWorkers))
	models := make([]*multival.Model, len(r.in.Chains))
	for ci, c := range r.in.Chains {
		err := tr.opSpan(fmt.Sprintf("setup-%d", ci), func() error {
			var l *lts.LTS
			if err := tr.call("aut", func() error {
				var err error
				l, err = aut.ReadString(c.Text)
				return err
			}); err != nil {
				return err
			}
			tr.add("aut.mb", float64(len(c.Text))/(1<<20))
			models[ci] = eng.FromLTS(l)
			return tr.call("lts", func() error { _ = models[ci].Hash(); return nil })
		})
		if err != nil {
			return err
		}
	}
	for i, o := range r.in.Ops {
		err := tr.opSpan(fmt.Sprintf("op-%d", i), func() error {
			rates := map[string]float64{"go": o.Go, "hop": o.Hop}
			pm, err := traceDecorate(ctx, tr, eng.Compose(models[o.Chain]).DecorateGateRates(rates, "go"), false)
			if err != nil {
				return err
			}
			res, err := traceExtract(ctx, tr, pm)
			if err != nil {
				return err
			}
			return traceMeasure(tr, res, 0)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// traceDecorate replays a pipeline's decoration (p must end in a
// decoration step) and, when lump is set, its lumping, each under its
// own span.
func traceDecorate(ctx context.Context, tr *tracer, p *multival.Pipeline, lump bool) (*multival.PerfModel, error) {
	var pm *multival.PerfModel
	if err := tr.call("imc.decorate", func() error {
		var err error
		pm, err = p.Perf(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	if !lump {
		return pm, nil
	}
	in := pm.States()
	if err := tr.call("imc.lump", func() error {
		var err error
		pm, err = pm.Lump(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	tr.add("imc.lump.states_in", float64(in))
	tr.add("imc.lump.states_out", float64(pm.States()))
	return pm, nil
}

// traceExtract replays maximal progress and CTMC extraction.
func traceExtract(ctx context.Context, tr *tracer, pm *multival.PerfModel) (*imc.CTMCResult, error) {
	var res *imc.CTMCResult
	if err := tr.call("imc.extract", func() error {
		var err error
		res, err = pm.M.MaximalProgress().ToCTMCCtx(ctx, nil, nil)
		return err
	}); err != nil {
		return nil, err
	}
	tr.add("imc.extract.states_in", float64(pm.States()))
	tr.add("imc.extract.states_out", float64(res.Chain.NumStates()))
	return res, nil
}

// traceMeasure solves the extracted chain: the steady state, or the
// transient law at time at > 0.
func traceMeasure(tr *tracer, res *imc.CTMCResult, at float64) error {
	return traceMarkov(tr, func(opts markov.SolveOptions) error {
		var err error
		if at > 0 {
			_, err = res.TransientOpt(at, opts)
		} else {
			_, err = res.Chain.SteadyState(opts)
		}
		return err
	})
}

// traceMarkov runs one solver call under a markov span, counting its
// sweeps (the largest Progress.Round) and the solver fallbacks it
// triggered.
func traceMarkov(tr *tracer, solve func(markov.SolveOptions) error) error {
	rounds := 0
	opts := markov.SolveOptions{Workers: engineWorkers, Progress: func(p multival.Progress) {
		rounds = max(rounds, p.Round)
	}}
	f0 := markov.Fallbacks()
	err := tr.call("markov", func() error { return solve(opts) })
	f1 := markov.Fallbacks()
	tr.add("markov.iterations", float64(rounds))
	tr.add("markov.fallbacks", float64(f1.GSToJacobi-f0.GSToJacobi+f1.BiCGSTABToJacobi-f0.BiCGSTABToJacobi))
	return err
}

func (r *coldRun) layerMetrics(tr *tracer, lat []time.Duration) map[string]float64 {
	return r.servedLog.metrics(tr, lat)
}

func (r *coldRun) close() { r.srv.close() }
