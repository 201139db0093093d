package process

import (
	"context"
	"fmt"

	"multival/internal/engine"
	"multival/internal/lts"
)

// This file keeps the string-keyed generator as a reference: states are
// identified by the printing of their whole term, every state derives
// its steps from scratch, and substitution rebuilds terms. The
// hash-consed generator must produce the same LTS byte for byte.

// generateByString is the reference for System.GenerateCtx.
func generateByString(ctx context.Context, s *System, opts GenOptions) (*lts.LTS, error) {
	if s.Root == nil {
		return nil, fmt.Errorf("process: system %q has no root behaviour", s.Name)
	}
	bound := opts.MaxStates
	if bound == 0 {
		bound = DefaultMaxStates
	}

	l := lts.New(s.Name)
	index := make(map[string]lts.State)
	var terms []Behavior

	intern := func(b Behavior) (lts.State, bool, error) {
		key := b.String()
		if st, ok := index[key]; ok {
			return st, false, nil
		}
		if len(terms) >= bound {
			return 0, false, &ExplosionError{bound}
		}
		st := l.AddState()
		index[key] = st
		terms = append(terms, b)
		return st, true, nil
	}

	if _, _, err := intern(s.Root); err != nil {
		return nil, err
	}
	l.SetInitial(0)

	for qi := 0; qi < len(terms); qi++ {
		if qi%genCheckEvery == 0 {
			if err := engine.Canceled(ctx); err != nil {
				return nil, fmt.Errorf("process: generation canceled at %d states: %w", len(terms), err)
			}
			opts.Progress.Report(engine.Progress{Stage: "generate", States: len(terms)})
		}
		src := lts.State(qi)
		ss, err := refSteps(terms[qi], s.Defs, 0)
		if err != nil {
			return nil, fmt.Errorf("state %d: %w", qi, err)
		}
		for _, st := range ss {
			dst, _, err := intern(st.next)
			if err != nil {
				return nil, err
			}
			l.AddTransition(src, st.label(), dst)
		}
	}
	return l, nil
}

// refStep is one derivation of the reference semantics.
type refStep struct {
	gate   string  // gate name; lts.Tau for internal steps
	args   []Value // communicated values
	isExit bool    // successful termination (the LOTOS delta action)
	next   Behavior
}

func (s refStep) label() string {
	return label{gate: s.gate, args: s.args, isExit: s.isExit}.text()
}

func refSameLabel(a, b refStep) bool {
	if a.gate != b.gate || len(a.args) != len(b.args) {
		return false
	}
	for i := range a.args {
		if a.args[i] != b.args[i] {
			return false
		}
	}
	return true
}

// refSteps computes all transitions of a closed behaviour term.
func refSteps(b Behavior, defs map[string]*ProcDef, depth int) ([]refStep, error) {
	if depth > maxUnfold {
		return nil, fmt.Errorf("process: unguarded recursion (unfold limit %d exceeded) in %.120s", maxUnfold, b.String())
	}
	switch t := b.(type) {
	case Stop:
		return nil, nil

	case Exit:
		vals := make([]Value, len(t.Results))
		for i, r := range t.Results {
			v, err := r.Eval()
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return []refStep{{isExit: true, args: vals, next: Stop{}}}, nil

	case Prefix:
		return refExpandOffers(t.Gate, t.Offers, nil, t.Cont)

	case Guard:
		c, err := t.Cond.Eval()
		if err != nil {
			return nil, err
		}
		if c.Kind != KindBool {
			return nil, &TypeError{"guard", KindBool, c}
		}
		if c.N == 0 {
			return nil, nil
		}
		return refSteps(t.B, defs, depth+1)

	case Choice:
		sa, err := refSteps(t.A, defs, depth+1)
		if err != nil {
			return nil, err
		}
		sb, err := refSteps(t.B, defs, depth+1)
		if err != nil {
			return nil, err
		}
		return append(sa, sb...), nil

	case Par:
		return refParSteps(t, defs, depth)

	case Hide:
		inner, err := refSteps(t.B, defs, depth+1)
		if err != nil {
			return nil, err
		}
		out := make([]refStep, len(inner))
		for i, s := range inner {
			ns := s
			ns.next = Hide{t.Gates, s.next}
			if !s.isExit && gateIn(s.gate, t.Gates) {
				ns.gate = lts.Tau
				ns.args = nil
			}
			out[i] = ns
		}
		return out, nil

	case Rename:
		inner, err := refSteps(t.B, defs, depth+1)
		if err != nil {
			return nil, err
		}
		out := make([]refStep, len(inner))
		for i, s := range inner {
			ns := s
			ns.next = Rename{t.Map, s.next}
			if !s.isExit && s.gate != lts.Tau {
				if to, ok := t.Map[s.gate]; ok {
					ns.gate = to
				}
			}
			out[i] = ns
		}
		return out, nil

	case Seq:
		inner, err := refSteps(t.A, defs, depth+1)
		if err != nil {
			return nil, err
		}
		var out []refStep
		for _, s := range inner {
			if !s.isExit {
				ns := s
				ns.next = Seq{s.next, t.Accept, t.B}
				out = append(out, ns)
				continue
			}
			if len(s.args) != len(t.Accept) {
				return nil, fmt.Errorf("process: exit carries %d values but '>> accept' expects %d", len(s.args), len(t.Accept))
			}
			cont := t.B
			for i, name := range t.Accept {
				cont = substB(cont, name, s.args[i])
			}
			out = append(out, refStep{gate: lts.Tau, next: cont})
		}
		return out, nil

	case Disable:
		sa, err := refSteps(t.A, defs, depth+1)
		if err != nil {
			return nil, err
		}
		sb, err := refSteps(t.B, defs, depth+1)
		if err != nil {
			return nil, err
		}
		var out []refStep
		for _, s := range sa {
			if s.isExit {
				out = append(out, s)
				continue
			}
			ns := s
			ns.next = Disable{s.next, t.B}
			out = append(out, ns)
		}
		out = append(out, sb...)
		return out, nil

	case Let:
		v, err := t.E.Eval()
		if err != nil {
			return nil, err
		}
		return refSteps(substB(t.B, t.Var, v), defs, depth+1)

	case Call:
		def, ok := defs[t.Proc]
		if !ok {
			return nil, fmt.Errorf("process: undefined process %q", t.Proc)
		}
		if len(t.Args) != len(def.Params) {
			return nil, fmt.Errorf("process: %s expects %d arguments, got %d", t.Proc, len(def.Params), len(t.Args))
		}
		body := def.Body
		for i, p := range def.Params {
			v, err := t.Args[i].Eval()
			if err != nil {
				return nil, fmt.Errorf("process: argument %d of %s: %w", i, t.Proc, err)
			}
			body = substB(body, p, v)
		}
		return refSteps(body, defs, depth+1)

	default:
		return nil, fmt.Errorf("process: unknown behaviour %T", b)
	}
}

func refExpandOffers(gate string, offers []Offer, acc []Value, cont Behavior) ([]refStep, error) {
	if len(offers) == 0 {
		args := append([]Value(nil), acc...)
		return []refStep{{gate: gate, args: args, next: cont}}, nil
	}
	o := offers[0]
	rest := offers[1:]

	if o.Emit != nil {
		v, err := o.Emit.Eval()
		if err != nil {
			return nil, err
		}
		return refExpandOffers(gate, rest, append(acc, v), cont)
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

	var out []refStep
	for _, v := range domain {
		restSub, shadow := substOffers(rest, o.Var, v)
		contSub := cont
		if !shadow {
			contSub = substB(cont, o.Var, v)
		}
		ss, err := refExpandOffers(gate, restSub, append(acc[:len(acc):len(acc)], v), contSub)
		if err != nil {
			return nil, err
		}
		out = append(out, ss...)
	}
	return out, nil
}

func refParSteps(t Par, defs map[string]*ProcDef, depth int) ([]refStep, error) {
	sa, err := refSteps(t.A, defs, depth+1)
	if err != nil {
		return nil, err
	}
	sb, err := refSteps(t.B, defs, depth+1)
	if err != nil {
		return nil, err
	}
	var out []refStep
	for _, s := range sa {
		if s.isExit || (s.gate != lts.Tau && gateIn(s.gate, t.Sync)) {
			continue
		}
		ns := s
		ns.next = Par{t.Sync, s.next, t.B}
		out = append(out, ns)
	}
	for _, s := range sb {
		if s.isExit || (s.gate != lts.Tau && gateIn(s.gate, t.Sync)) {
			continue
		}
		ns := s
		ns.next = Par{t.Sync, t.A, s.next}
		out = append(out, ns)
	}
	for _, x := range sa {
		for _, y := range sb {
			switch {
			case x.isExit && y.isExit:
				if refSameLabel(refStep{gate: "exit", args: x.args}, refStep{gate: "exit", args: y.args}) {
					out = append(out, refStep{isExit: true, args: x.args, next: Par{t.Sync, x.next, y.next}})
				}
			case !x.isExit && !y.isExit && x.gate != lts.Tau && gateIn(x.gate, t.Sync):
				if refSameLabel(x, y) {
					out = append(out, refStep{gate: x.gate, args: x.args, next: Par{t.Sync, x.next, y.next}})
				}
			}
		}
	}
	return out, nil
}

// substB replaces the free occurrences of a variable by a value in a
// behaviour term, rebuilding it.
func substB(b Behavior, name string, v Value) Behavior {
	switch t := b.(type) {
	case Exit:
		if len(t.Results) == 0 {
			return t
		}
		return Exit{substExprs(t.Results, name, v)}
	case Prefix:
		offers, shadowed := substOffers(t.Offers, name, v)
		cont := t.Cont
		if !shadowed {
			cont = substB(cont, name, v)
		}
		return Prefix{t.Gate, offers, cont}
	case Guard:
		return Guard{t.Cond.substExpr(name, v), substB(t.B, name, v)}
	case Choice:
		return Choice{substB(t.A, name, v), substB(t.B, name, v)}
	case Par:
		return Par{t.Sync, substB(t.A, name, v), substB(t.B, name, v)}
	case Hide:
		return Hide{t.Gates, substB(t.B, name, v)}
	case Rename:
		return Rename{t.Map, substB(t.B, name, v)}
	case Disable:
		return Disable{substB(t.A, name, v), substB(t.B, name, v)}
	case Seq:
		bb := t.B
		if !containsString(t.Accept, name) {
			bb = substB(bb, name, v)
		}
		return Seq{substB(t.A, name, v), t.Accept, bb}
	case Let:
		bb := t.B
		if t.Var != name {
			bb = substB(bb, name, v)
		}
		return Let{t.Var, t.E.substExpr(name, v), bb}
	case Call:
		return Call{t.Proc, substExprs(t.Args, name, v)}
	default: // Stop, and terms the generator rejects
		return b
	}
}
