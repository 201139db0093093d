package process

import (
	"fmt"
	"strconv"
	"strings"

	"multival/internal/lts"
)

// maxUnfold bounds the number of structural rewrites (process calls,
// guards, lets) performed while searching for the next action of a term.
// Exceeding it indicates unguarded recursion such as P := P [] Q.
const maxUnfold = 4096

// step is one derivation of the structural operational semantics: a
// labeled transition from a term to its continuation, both interned.
type step struct {
	lab  int32 // index into generator.labels
	next int32 // successor term ID
}

// label is a transition label: a gate with its communicated values, or
// successful termination (the LOTOS delta action) with its results.
type label struct {
	gate   string
	args   []Value
	isExit bool
}

// text renders the label in CADP style: GATE !v1 !v2.
func (l label) text() string {
	g := l.gate
	if l.isExit {
		g = "exit"
	}
	if len(l.args) == 0 {
		return g
	}
	var b strings.Builder
	b.WriteString(g)
	for _, v := range l.args {
		b.WriteString(" !")
		b.WriteString(v.String())
	}
	return b.String()
}

// memo locates the memoized steps of one term in generator.arena.
type memo struct {
	off, n int32
	// height is 1 + the derivation depth below the term; 0 until the
	// term is derived.
	height int32
}

// generator derives the steps of interned terms. Steps are memoized per
// term ID; labels are interned once per (gate, values).
type generator struct {
	t        *terms
	defs     map[string]*ProcDef
	bodies   map[*ProcDef]int32
	arena    []step // memoized steps of every derived term, back to back
	memo     []memo // per term ID
	labels   []label
	labelIdx map[string]int32
	par      map[int32]*parClass // per Par payload
	tau      int32
	stop     int32
	reach    int // deepest unfold depth reached by the derivation under way
}

func newGenerator(defs map[string]*ProcDef) *generator {
	g := &generator{
		t:        newTerms(),
		defs:     defs,
		bodies:   make(map[*ProcDef]int32),
		labelIdx: make(map[string]int32),
		par:      make(map[int32]*parClass),
	}
	g.tau = g.label(lts.Tau, nil, false)
	g.stop = g.t.mk(kStop, noTerm, noTerm, noTerm)
	return g
}

// label interns (gate, args) or an exit with results; args is copied.
func (g *generator) label(gate string, args []Value, isExit bool) int32 {
	var b strings.Builder
	if isExit {
		b.WriteByte('x')
	} else {
		b.WriteByte('g')
		b.WriteString(gate)
	}
	for _, v := range args {
		b.WriteByte(0)
		b.WriteByte(byte('0' + v.Kind))
		b.WriteString(strconv.Itoa(v.N))
	}
	key := b.String()
	if id, ok := g.labelIdx[key]; ok {
		return id
	}
	id := int32(len(g.labels))
	g.labels = append(g.labels, label{gate: gate, args: append([]Value(nil), args...), isExit: isExit})
	g.labelIdx[key] = id
	return id
}

// steps returns the memoized steps of term id, derived at the given
// unfold depth. The result is shared and must not be modified.
func (g *generator) steps(id int32, depth int) ([]step, error) {
	if depth > maxUnfold {
		return nil, fmt.Errorf("process: unguarded recursion (unfold limit %d exceeded) in %.120s", maxUnfold, g.t.behavior(id).String())
	}
	g.memo = extend(g.memo, len(g.t.nodes))
	// A memoized derivation is reused where the unfold limit would not
	// be reached below it, so the limit error stays where it was.
	if m := g.memo[id]; m.height > 0 && depth+int(m.height-1) <= maxUnfold {
		g.reach = max(g.reach, depth+int(m.height-1))
		return g.arena[m.off : m.off+m.n : m.off+m.n], nil
	}
	outer := g.reach
	g.reach = depth
	ss, err := g.derive(id, depth, nil)
	if err != nil {
		return nil, err
	}
	g.memo[id] = memo{int32(len(g.arena)), int32(len(ss)), int32(g.reach-depth) + 1}
	g.arena = append(g.arena, ss...)
	g.reach = max(outer, g.reach)
	return ss, nil
}

// extend returns s lengthened with zero values to at least n elements,
// doubling its capacity when it has to grow.
func extend[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n > cap(s) {
		ns := make([]T, len(s), max(n, 2*cap(s), 64))
		copy(ns, s)
		s = ns
	}
	return s[:n]
}

// derive appends the steps of term id to out, in the order of the
// structural operational semantics.
func (g *generator) derive(id int32, depth int, out []step) ([]step, error) {
	t := g.t
	n := t.nodes[id]
	switch x := t.payload(n).(type) {
	case Exit:
		vals := make([]Value, len(x.Results))
		for i, r := range x.Results {
			v, err := r.Eval()
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return append(out, step{g.label("", vals, true), g.stop}), nil

	case Prefix:
		return g.expandOffers(x.Gate, x.Offers, nil, n.a, out)

	case Guard:
		c, err := x.Cond.Eval()
		if err != nil {
			return nil, err
		}
		if c.Kind != KindBool {
			return nil, &TypeError{"guard", KindBool, c}
		}
		if c.N == 0 {
			return out, nil
		}
		return g.appendSteps(out, n.a, depth+1)

	case Par:
		return g.parSteps(n, x.Sync, depth, out)

	case Hide:
		inner, err := g.steps(n.a, depth+1)
		if err != nil {
			return nil, err
		}
		for _, s := range inner {
			lab := s.lab
			if l := g.labels[lab]; !l.isExit && gateIn(l.gate, x.Gates) {
				lab = g.tau
			}
			out = append(out, step{lab, t.mk(kHide, n.pay, s.next, noTerm)})
		}
		return out, nil

	case Rename:
		inner, err := g.steps(n.a, depth+1)
		if err != nil {
			return nil, err
		}
		for _, s := range inner {
			lab := s.lab
			if l := g.labels[lab]; !l.isExit && l.gate != lts.Tau {
				if to, ok := x.Map[l.gate]; ok {
					lab = g.label(to, l.args, false)
				}
			}
			out = append(out, step{lab, t.mk(kRename, n.pay, s.next, noTerm)})
		}
		return out, nil

	case Seq:
		inner, err := g.steps(n.a, depth+1)
		if err != nil {
			return nil, err
		}
		for _, s := range inner {
			l := g.labels[s.lab]
			if !l.isExit {
				out = append(out, step{s.lab, t.mk(kSeq, n.pay, s.next, n.b)})
				continue
			}
			if len(l.args) != len(x.Accept) {
				return nil, fmt.Errorf("process: exit carries %d values but '>> accept' expects %d", len(l.args), len(x.Accept))
			}
			cont := n.b
			for i, name := range x.Accept {
				cont = t.subst(cont, name, l.args[i])
			}
			// The delta action becomes internal in the composition.
			out = append(out, step{g.tau, cont})
		}
		return out, nil

	case Let:
		v, err := x.E.Eval()
		if err != nil {
			return nil, err
		}
		return g.appendSteps(out, t.subst(n.a, x.Var, v), depth+1)

	case Call:
		def, ok := g.defs[x.Proc]
		if !ok {
			return nil, fmt.Errorf("process: undefined process %q", x.Proc)
		}
		if len(x.Args) != len(def.Params) {
			return nil, fmt.Errorf("process: %s expects %d arguments, got %d", x.Proc, len(def.Params), len(x.Args))
		}
		body, err := g.body(def)
		if err != nil {
			return nil, err
		}
		for i, param := range def.Params {
			v, err := x.Args[i].Eval()
			if err != nil {
				return nil, fmt.Errorf("process: argument %d of %s: %w", i, x.Proc, err)
			}
			body = t.subst(body, param, v)
		}
		return g.appendSteps(out, body, depth+1)
	}

	switch n.kind {
	case kChoice:
		out, err := g.appendSteps(out, n.a, depth+1)
		if err != nil {
			return nil, err
		}
		return g.appendSteps(out, n.b, depth+1)

	case kDisable:
		sa, err := g.steps(n.a, depth+1)
		if err != nil {
			return nil, err
		}
		sb, err := g.steps(n.b, depth+1)
		if err != nil {
			return nil, err
		}
		for _, s := range sa {
			if g.labels[s.lab].isExit {
				// Successful termination of A dissolves the disable.
				out = append(out, s)
				continue
			}
			out = append(out, step{s.lab, t.mk(kDisable, noTerm, s.next, n.b)})
		}
		// B may preempt at any time (including immediately).
		return append(out, sb...), nil
	}
	return out, nil // Stop
}

func (g *generator) appendSteps(out []step, id int32, depth int) ([]step, error) {
	ss, err := g.steps(id, depth)
	if err != nil {
		return nil, err
	}
	return append(out, ss...), nil
}

// body interns a process definition's body once per generation.
func (g *generator) body(def *ProcDef) (int32, error) {
	if id, ok := g.bodies[def]; ok {
		return id, nil
	}
	id, err := g.t.intern(def.Body)
	if err != nil {
		return noTerm, err
	}
	g.bodies[def] = id
	return id, nil
}

// expandOffers enumerates the communication alternatives of an action
// prefix: emissions are evaluated, acceptances range over their finite
// domains (substituted into the remaining offers and the continuation).
func (g *generator) expandOffers(gate string, offers []Offer, acc []Value, cont int32, out []step) ([]step, error) {
	if len(offers) == 0 {
		return append(out, step{g.label(gate, acc, false), cont}), nil
	}
	o := offers[0]
	rest := offers[1:]

	if o.Emit != nil {
		v, err := o.Emit.Eval()
		if err != nil {
			return nil, err
		}
		return g.expandOffers(gate, rest, append(acc, v), cont, out)
	}

	var domain []Value
	if o.BoolDomain {
		domain = []Value{BoolVal(false), BoolVal(true)}
	} else {
		if o.Hi < o.Lo {
			return nil, fmt.Errorf("process: empty domain %d..%d for ?%s", o.Lo, o.Hi, o.Var)
		}
		if o.Hi-o.Lo > 4096 {
			return nil, fmt.Errorf("process: domain %d..%d for ?%s too large", o.Lo, o.Hi, o.Var)
		}
		for n := o.Lo; n <= o.Hi; n++ {
			domain = append(domain, IntVal(n))
		}
	}

	for _, v := range domain {
		restSub, shadow := substOffers(rest, o.Var, v)
		contSub := cont
		if !shadow {
			contSub = g.t.subst(cont, o.Var, v)
		}
		var err error
		out, err = g.expandOffers(gate, restSub, append(acc[:len(acc):len(acc)], v), contSub, out)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parSteps implements the LOTOS parallel operator: interleave steps whose
// gate is outside the synchronization set, match steps pairwise on
// synchronized gates (same gate, same values), and synchronize successful
// termination. Each successor is the interned (Par, sync, a', b') node.
func (g *generator) parSteps(n nodeKey, sync []string, depth int, out []step) ([]step, error) {
	sa, err := g.steps(n.a, depth+1)
	if err != nil {
		return nil, err
	}
	sb, err := g.steps(n.b, depth+1)
	if err != nil {
		return nil, err
	}
	t := g.t
	c := g.par[n.pay]
	if c == nil {
		c = &parClass{sync: sync}
		g.par[n.pay] = c
	}
	for _, s := range sa {
		if g.free(c, s.lab) {
			out = append(out, step{s.lab, t.mk(kPar, n.pay, s.next, n.b)})
		}
	}
	for _, s := range sb {
		if g.free(c, s.lab) {
			out = append(out, step{s.lab, t.mk(kPar, n.pay, n.a, s.next)})
		}
	}
	for _, x := range sa {
		// Termination synchronizes on agreeing result values, so '>>'
		// binding is well-defined; a synchronized gate needs the same
		// gate and values on both sides. Either way the labels are equal.
		if g.free(c, x.lab) {
			continue
		}
		for _, y := range sb {
			if x.lab == y.lab {
				out = append(out, step{x.lab, t.mk(kPar, n.pay, x.next, y.next)})
			}
		}
	}
	return out, nil
}

// parClass memoizes, for one synchronization set, which labels move one
// side of a parallel composition alone.
type parClass struct {
	sync []string
	free []uint8 // per label: 0 not yet known, 1 free, 2 synchronizing
}

// free reports whether a step labeled lab interleaves under c: it is not
// an exit, and it is the internal action or an action on a gate outside
// the synchronization set.
func (g *generator) free(c *parClass, lab int32) bool {
	c.free = extend(c.free, len(g.labels))
	if c.free[lab] == 0 {
		l := g.labels[lab]
		c.free[lab] = 2
		if !l.isExit && (l.gate == lts.Tau || !gateIn(l.gate, c.sync)) {
			c.free[lab] = 1
		}
	}
	return c.free[lab] == 1
}

func gateIn(gate string, sorted []string) bool {
	for _, g := range sorted {
		if g == gate {
			return true
		}
		if g > gate {
			return false
		}
	}
	return false
}
