package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"multival"
	"multival/internal/bisim"
	"multival/internal/compose"
	"multival/internal/lts"
	"multival/internal/xstream"
)

// compose-reduce: the compositional flow through the root Pipeline. Each
// op is a tandem of 4-6 xSTream counting queues synchronized on their
// handoff gates, run through Compose().Sync().Hide().Minimize(Branching),
// then decorated (arrival rate on the first gate, service rate on the
// last), lumped and solved. A state is a product state.
//
// With the handoffs hidden, the tandem is branching-equivalent to one
// counting queue of the summed capacity, and its throughput is the M/M/1/K
// closed form with K the summed capacity.

// tandemClass is a queue tandem up to the order of its stages, which the
// seed permutes (the product size does not depend on the order). values
// = 0 selects counting queues (xstream.StageModel), values > 0 FIFO
// queues over that many data values (xstream.ValueQueue).
type tandemClass struct {
	caps   []int
	values int
	count  int
}

// composePass is one pass of the op mix, stratified so that the median
// falls in the middle of the block of the 4096-state value pipelines and
// the 90th percentile in the middle of the block of the 3000-state
// counting tandems (the costliest class, 20% of the ops).
var composePass = []tandemClass{
	{[]int{3, 3, 3, 3, 3}, 0, 1},
	{[]int{2, 1, 1, 1, 1}, 3, 1},
	{[]int{1, 1, 1, 1, 1}, 4, 1},
	{[]int{1, 1, 1, 1, 1, 1}, 3, 3},
	{[]int{5, 6, 6, 7}, 0, 2},
	{[]int{3, 4, 4, 4, 5}, 0, 2},
}

const composePassLen = 10

// tandemOp is one generated op: stage capacities in tandem order and the
// arrival and service rates.
type tandemOp struct {
	Caps   []int   `json:"caps"`
	Values int     `json:"values"`
	Lambda float64 `json:"lambda"`
	Mu     float64 `json:"mu"`
}

func (o tandemOp) capacity() int {
	c := 0
	for _, k := range o.Caps {
		c += k
	}
	return c
}

func (o tandemOp) last() string { return xstream.StageGate(len(o.Caps)) }

// internal lists the synchronized (and hidden) handoff gates.
func (o tandemOp) internal() []string {
	var gates []string
	for i := 1; i < len(o.Caps); i++ {
		gates = append(gates, xstream.StageGate(i))
	}
	return gates
}

func (o tandemOp) rates() map[string]float64 {
	return map[string]float64{xstream.StageGate(0): o.Lambda, o.last(): o.Mu}
}

func genTandemOps(seed int64, n int) []tandemOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []tandemOp
	for len(ops) < n {
		var pass []tandemOp
		for _, c := range composePass {
			for k := 0; k < c.count; k++ {
				caps := make([]int, len(c.caps))
				for i, j := range rng.Perm(len(c.caps)) {
					caps[i] = c.caps[j]
				}
				pass = append(pass, tandemOp{Caps: caps, Values: c.values, Lambda: 0.5 + rng.Float64(), Mu: 0.5 + rng.Float64()})
			}
		}
		rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		ops = append(ops, pass...)
	}
	return ops[:n]
}

type composeRun struct {
	ops []tandemOp
	eng *multival.Engine
}

func newComposeRun(seed int64, n int) (workload, error) {
	return &composeRun{ops: genTandemOps(seed, n)}, nil
}

func (r *composeRun) inputs() any { return r.ops }

// stages builds the tandem's component LTSs.
func (o tandemOp) stages() ([]*lts.LTS, error) {
	var ls []*lts.LTS
	for i, c := range o.Caps {
		l, err := o.queue(c, xstream.StageGate(i), xstream.StageGate(i+1))
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
	}
	return ls, nil
}

// queue builds one queue of the tandem's kind.
func (o tandemOp) queue(capacity int, in, out string) (*lts.LTS, error) {
	if o.Values == 0 {
		return xstream.StageModel(capacity, in, out)
	}
	return xstream.ValueQueue(in, out, capacity, o.Values)
}

func (r *composeRun) setup(ctx context.Context) error {
	r.eng = multival.NewEngine(multival.WithWorkers(engineWorkers))
	_, _, err := r.run(ctx, tandemOp{Caps: []int{3, 4, 4, 4, 5}, Lambda: 1, Mu: 1})
	return err
}

// tandemAnswer is what the oracle checks.
type tandemAnswer struct {
	min *multival.Model
	ms  *multival.Measures
}

func (r *composeRun) op(ctx context.Context, i int) (int, any, error) {
	product, a, err := r.run(ctx, r.ops[i])
	return product, a, err
}

// run is the compositional flow through the root Pipeline. It returns
// the product size (from the engine's final compose progress report).
func (r *composeRun) run(ctx context.Context, o tandemOp) (int, *tandemAnswer, error) {
	ls, err := o.stages()
	if err != nil {
		return 0, nil, err
	}
	product := 0
	eng := r.eng.With(multival.WithProgress(func(p multival.Progress) {
		if p.Stage == "compose" && p.Done {
			product = p.States
		}
	}))
	comps := make([]*multival.Model, len(ls))
	for i, l := range ls {
		comps[i] = eng.FromLTS(l)
	}
	gates := o.internal()
	m, err := eng.Compose(comps...).Sync(gates...).Hide(gates...).Minimize(multival.Branching).Model(ctx)
	if err != nil {
		return 0, nil, err
	}
	ms, err := eng.Compose(m).DecorateGateRates(o.rates(), o.last()).Lump().Solve(ctx)
	if err != nil {
		return 0, nil, err
	}
	return product, &tandemAnswer{min: m, ms: ms}, nil
}

func (r *composeRun) check(i int, answer any) error {
	return checkTandem(r.ops[i], answer.(*tandemAnswer))
}

// tandemTol is the relative tolerance of the throughput check.
const tandemTol = 1e-6

// checkTandem compares the minimized product with one monolithic queue
// of the summed capacity (modulo branching bisimulation, at the minimized
// size) and the throughput with the M/M/1/K closed form. Every value
// label of the first gate carries the arrival rate, so a value queue's
// arrival rate is values x lambda.
func checkTandem(o tandemOp, a *tandemAnswer) error {
	k := o.capacity()
	ref, err := o.queue(k, xstream.StageGate(0), o.last())
	if err != nil {
		return err
	}
	if a.min.States() != ref.NumStates() || !bisim.Equivalent(a.min.L, ref, bisim.Branching) {
		return fmt.Errorf("tandem %v: minimized product (%d states) is not branching-equivalent to a %d-place queue", o.Caps, a.min.States(), k)
	}
	lambda := o.Lambda * float64(max(o.Values, 1))
	pi := xstream.AnalyticOccupancy(xstream.PerfConfig{Capacity: k, ArrivalRate: lambda, ServiceRate: o.Mu})
	want := lambda * (1 - pi[k])
	got := 0.0
	for label, thr := range a.ms.Throughputs {
		if multival.Gate(label) == o.last() {
			got += thr
		}
	}
	if math.Abs(got-want) > tandemTol*want {
		return fmt.Errorf("tandem %v: throughput %.12g, want %.12g", o.Caps, got, want)
	}
	return nil
}

func (r *composeRun) replay(ctx context.Context, tr *tracer) error {
	eng := multival.NewEngine(multival.WithWorkers(engineWorkers))
	for i, o := range r.ops {
		if err := tr.opSpan(fmt.Sprintf("op-%d", i), func() error { return replayTandem(ctx, tr, eng, o) }); err != nil {
			return err
		}
	}
	return nil
}

// replayTandem is one op through the layers' public functions: operand
// pre-minimization, product generation, hiding, branching refinement,
// then decoration, lumping, extraction and the steady-state solve.
func replayTandem(ctx context.Context, tr *tracer, eng *multival.Engine, o tandemOp) error {
	ls, err := o.stages()
	if err != nil {
		return err
	}
	for i, l := range ls {
		var q *lts.LTS
		if err := tr.call("bisim", func() error {
			var err error
			q, _, err = bisim.MinimizeCtx(ctx, l, bisim.Branching, bisim.Options{Workers: engineWorkers})
			return err
		}); err != nil {
			return err
		}
		ls[i] = q
	}
	gates := o.internal()
	var prod *lts.LTS
	if err := tr.call("compose", func() error {
		var err error
		n := &compose.Network{Components: ls, Sync: gates}
		prod, err = n.GenerateOpt(ctx, compose.GenOptions{Workers: engineWorkers})
		return err
	}); err != nil {
		return err
	}
	tr.add("compose.states", float64(prod.NumStates()))
	hidden := map[string]bool{}
	for _, g := range gates {
		hidden[g] = true
	}
	_ = tr.call("lts", func() error {
		prod = prod.Hide(func(label string) bool { return hidden[lts.Gate(label)] })
		return nil
	})
	min, err := traceMinimize(ctx, tr, prod, bisim.Branching)
	if err != nil {
		return err
	}
	pm, err := traceDecorate(ctx, tr, eng.Compose(eng.FromLTS(min)).DecorateGateRates(o.rates(), o.last()), true)
	if err != nil {
		return err
	}
	res, err := traceExtract(ctx, tr, pm)
	if err != nil {
		return err
	}
	return traceMeasure(tr, res, 0)
}

func (r *composeRun) layerMetrics(*tracer, []time.Duration) map[string]float64 { return nil }

func (r *composeRun) close() {}
