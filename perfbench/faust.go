package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"multival"
	"multival/internal/bisim"
	"multival/internal/chp"
	"multival/internal/faust"
	"multival/internal/lts"
	"multival/internal/mcl"
)

// faust-router: the paper's §3 E2 flow in process. Each op generates a
// FAUST router's LTS with faust.RouterLTS, model-checks it for deadlock
// freedom and misrouting with mcl, and minimizes it modulo branching
// bisimulation. A state is a generated LTS state.

// routerClass is a router configuration up to the choice of active
// inputs: configurations of one class have isomorphic state spaces, so
// the seed may pick the inputs without changing the cost of the op.
type routerClass struct {
	ports, inputs int
	handshake     bool
}

// faustPass is one pass of the op mix, stratified so that the median and
// the 90th percentile each fall well inside a block of one class: 7
// small ops, 7 ops of class (3,2) [the median] and 6 of class (4,1,hs)
// [the 90th percentile]. The ports-3 all-input router (6124 states, 1 s)
// is set-up's warm-up op, checked like the others; the ports-4 all-input
// router (304k states) is excluded.
var faustPass = []struct {
	class routerClass
	count int
}{
	{routerClass{2, 1, false}, 1},
	{routerClass{2, 1, true}, 1},
	{routerClass{2, 2, false}, 1},
	{routerClass{2, 2, true}, 1},
	{routerClass{3, 1, false}, 1},
	{routerClass{3, 1, true}, 1},
	{routerClass{4, 1, false}, 1},
	{routerClass{3, 2, false}, 7},
	{routerClass{4, 1, true}, 6},
}

const faustPassLen = 20

// faustMaxStates bounds each generation well above the largest class.
const faustMaxStates = 1 << 16

// routerOp is one generated op: a concrete router configuration.
type routerOp struct {
	Ports     int   `json:"ports"`
	Inputs    []int `json:"inputs"`
	Handshake bool  `json:"handshake"`
}

func (o routerOp) key() string {
	hs := 0
	if o.Handshake {
		hs = 1
	}
	return fmt.Sprintf("p%d-i%v-hs%d", o.Ports, o.Inputs, hs)
}

// genRouterOps draws n ops: whole passes of faustPass, each pass
// shuffled, each op's active inputs drawn from the seed.
func genRouterOps(seed int64, n int) []routerOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []routerOp
	for len(ops) < n {
		var pass []routerOp
		for _, c := range faustPass {
			for k := 0; k < c.count; k++ {
				perm := rng.Perm(c.class.ports)[:c.class.inputs]
				pass = append(pass, routerOp{Ports: c.class.ports, Inputs: sortedInts(perm), Handshake: c.class.handshake})
			}
		}
		rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		ops = append(ops, pass...)
	}
	return ops[:n]
}

type faustRun struct {
	ops []routerOp
	eng *multival.Engine
}

func newFaustRun(seed int64, n int) (workload, error) {
	return &faustRun{ops: genRouterOps(seed, n)}, nil
}

func (r *faustRun) inputs() any { return r.ops }

// warmupOp is the op set-up runs untimed: the ports-3 all-input router.
var warmupOp = routerOp{Ports: 3, Inputs: []int{0, 1, 2}}

func (r *faustRun) setup(ctx context.Context) error {
	r.eng = newFaustEngine()
	a, err := r.verify(ctx, warmupOp)
	if err != nil {
		return err
	}
	return checkRouter(warmupOp, a)
}

func newFaustEngine() *multival.Engine {
	return multival.NewEngine(multival.WithWorkers(engineWorkers), multival.WithMaxStates(faustMaxStates))
}

// routerAnswer is what the oracle checks: the generated LTS and the E2
// verdicts, plus the size of the minimized router.
type routerAnswer struct {
	l            *lts.LTS
	deadlockFree bool
	misrouteFree bool
	minStates    int
}

func (r *faustRun) op(ctx context.Context, i int) (int, any, error) {
	a, err := r.verify(ctx, r.ops[i])
	if err != nil {
		return 0, nil, err
	}
	return a.l.NumStates(), a, nil
}

// verify is the E2 flow through the public entry points.
func (r *faustRun) verify(ctx context.Context, o routerOp) (*routerAnswer, error) {
	l, err := faust.RouterLTS(faust.RouterConfig{Ports: o.Ports, InputsActive: o.Inputs},
		chp.Options{HandshakeExpand: o.Handshake}, faustMaxStates)
	if err != nil {
		return nil, err
	}
	m := r.eng.FromLTS(l)
	a := &routerAnswer{l: l}
	dl, err := m.CheckDeadlockFree()
	if err != nil {
		return nil, err
	}
	a.deadlockFree = dl.Holds
	a.misrouteFree = true
	for _, bad := range faust.MisroutedLabels(o.Ports) {
		ok, err := mcl.Check(l, mcl.NeverEnabled(mcl.Action(bad)))
		if err != nil {
			return nil, err
		}
		a.misrouteFree = a.misrouteFree && ok
	}
	q, err := r.eng.Minimize(ctx, m, multival.Branching)
	if err != nil {
		return nil, err
	}
	a.minStates = q.States()
	return a, nil
}

// routerPin is the pinned E2 outcome of one concrete configuration.
type routerPin struct {
	states, transitions, minStates int
	hash                           string
}

func (r *faustRun) check(i int, answer any) error {
	return checkRouter(r.ops[i], answer.(*routerAnswer))
}

// checkRouter compares an answer with the pinned table: E2 verdicts
// (both properties hold on every configuration), state and transition
// counts, the minimized size and the Model.Hash() digest.
func checkRouter(o routerOp, a *routerAnswer) error {
	pin, ok := routerPins[o.key()]
	if !ok {
		return fmt.Errorf("faust: no pinned outcome for %s", o.key())
	}
	if !a.deadlockFree || !a.misrouteFree {
		return fmt.Errorf("faust %s: verdicts deadlock-free=%v misroute-free=%v, want true/true", o.key(), a.deadlockFree, a.misrouteFree)
	}
	if a.l.NumStates() != pin.states || a.l.NumTransitions() != pin.transitions || a.minStates != pin.minStates {
		return fmt.Errorf("faust %s: %d states / %d transitions / %d minimized, want %d / %d / %d", o.key(),
			a.l.NumStates(), a.l.NumTransitions(), a.minStates, pin.states, pin.transitions, pin.minStates)
	}
	if h := a.l.Freeze().Hash(); h != pin.hash {
		return fmt.Errorf("faust %s: hash %s, want %s", o.key(), h, pin.hash)
	}
	return nil
}

func (r *faustRun) replay(ctx context.Context, tr *tracer) error {
	for i, o := range r.ops {
		if err := tr.opSpan(fmt.Sprintf("op-%d", i), func() error { return replayRouter(ctx, tr, o) }); err != nil {
			return err
		}
	}
	return nil
}

// replayRouter is one op through the layers' public functions:
// process generation (via faust.RouterLTS), the mcl checks, and the
// branching refinement.
func replayRouter(ctx context.Context, tr *tracer, o routerOp) error {
	var l *lts.LTS
	err := tr.call("process", func() error {
		var err error
		l, err = faust.RouterLTS(faust.RouterConfig{Ports: o.Ports, InputsActive: o.Inputs},
			chp.Options{HandshakeExpand: o.Handshake}, faustMaxStates)
		return err
	})
	if err != nil {
		return err
	}
	tr.add("process.states", float64(l.NumStates()))
	formulas := []mcl.Formula{mcl.DeadlockFree()}
	for _, bad := range faust.MisroutedLabels(o.Ports) {
		formulas = append(formulas, mcl.NeverEnabled(mcl.Action(bad)))
	}
	for _, f := range formulas {
		if err := tr.call("mcl", func() error { _, err := mcl.Check(l, f); return err }); err != nil {
			return err
		}
	}
	_, err = traceMinimize(ctx, tr, l, bisim.Branching)
	return err
}

// traceMinimize runs one bisim.MinimizeCtx call under a span, recording
// its input and output sizes and the refinement rounds its Progress hook
// reports.
func traceMinimize(ctx context.Context, tr *tracer, l *lts.LTS, rel bisim.Relation) (*lts.LTS, error) {
	rounds := 0
	opts := bisim.Options{Workers: engineWorkers, Progress: func(p multival.Progress) {
		rounds = max(rounds, p.Round)
	}}
	var q *lts.LTS
	err := tr.call("bisim", func() error {
		var err error
		q, _, err = bisim.MinimizeCtx(ctx, l, rel, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.add("bisim.states", float64(l.NumStates()))
	tr.add("bisim.blocks", float64(q.NumStates()))
	tr.add("bisim.rounds", float64(rounds))
	return q, nil
}

func (r *faustRun) layerMetrics(*tracer, []time.Duration) map[string]float64 { return nil }

func (r *faustRun) close() {}

func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
