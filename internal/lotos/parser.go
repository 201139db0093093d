package lotos

import (
	"fmt"

	"multival/internal/engine"
	"multival/internal/process"
)

// Parse compiles a specification into a process.System. The accepted
// grammar is (see the package comment for an example):
//
//	spec     ::= ["specification" IDENT] def* ["behaviour"|"behavior"] behav
//	def      ::= "process" IDENT ["(" IDENT ("," IDENT)* ")"] ":=" behav "endproc"
//	behav    ::= seq
//	seq      ::= par (">>" ["accept" IDENT ("," IDENT)* "in"] par)*
//	par      ::= choice (("|||" | "|[" gates "]|") choice)*
//	choice   ::= prefix ("[]" prefix)*
//	prefix   ::= IDENT offer* ";" prefix            (action prefix)
//	           | "[" expr "]" "->" prefix           (guard)
//	           | "hide" gates "in" prefix
//	           | "rename" IDENT "->" IDENT ("," ...)* "in" prefix
//	           | "let" IDENT ":="? "=="? ... — see let rule below
//	           | atom
//	let      ::= "let" IDENT ":=" expr "in" prefix
//	atom     ::= "stop" | "exit" ["(" exprs ")"] | IDENT ["(" exprs ")"]
//	           | "(" behav ")"
//	offer    ::= "!" primary | "?" IDENT ":" (INT ".." INT | "bool")
//	expr     ::= standard precedence with or/and/not, comparisons,
//	             + - * div mod, unary minus, if-then-else, literals
//
// An IDENT in behaviour position is an action prefix when followed by
// ';', '!' or '?', and a process instantiation otherwise.
func Parse(src string) (*process.System, error) {
	p := &parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p.parseSpec()
}

// MustParse is Parse that panics on error.
func MustParse(src string) *process.System {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

type parser struct {
	lx  *lexer
	tok token
	// depth is the current depth of recursive descent; height is the
	// nesting height of the term parsed last.
	depth, height int
}

// MaxNesting bounds how deeply a specification may nest: the depth of
// recursive descent (parentheses, prefixes, operands) and the height of
// the root behaviour and of every process body, expressions included.
// Deeper input is rejected with an error wrapping engine.ErrNestingDepth;
// it would otherwise exhaust the goroutine stack of the parser or of the
// recursive passes over the terms (printing, substitution, generation),
// and a stack overflow cannot be recovered.
const MaxNesting = 10000

// enter counts one more level of recursive descent; leave undoes it.
func (p *parser) enter() error {
	p.depth++
	if p.depth > MaxNesting {
		return p.tooDeep()
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// built records the height of the term just built over subterms of the
// given heights.
func (p *parser) built(subterms ...int) {
	h := 0
	for _, s := range subterms {
		h = max(h, s)
	}
	p.height = h + 1
}

// join records the height of a binary term whose left operand has
// height left and whose right operand was parsed last, and returns it.
func (p *parser) join(left int) int {
	p.built(left, p.height)
	return p.height
}

// checkHeight rejects the term parsed last if it nests too deeply.
func (p *parser) checkHeight() error {
	if p.height > MaxNesting {
		return p.tooDeep()
	}
	return nil
}

func (p *parser) tooDeep() error {
	return &Error{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf("nesting deeper than %d levels", MaxNesting), Err: engine.ErrNestingDepth}
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return &Error{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(kind tokKind) error {
	if p.tok.kind != kind {
		return p.errorf("expected %s, got %s", tokNames[kind], p.tok)
	}
	return p.advance()
}

func (p *parser) isKw(kw string) bool {
	return p.tok.kind == tIdent && p.tok.text == kw
}

func (p *parser) acceptKw(kw string) (bool, error) {
	if p.isKw(kw) {
		return true, p.advance()
	}
	return false, nil
}

func (p *parser) ident(what string) (string, error) {
	if p.tok.kind != tIdent {
		return "", p.errorf("expected %s, got %s", what, p.tok)
	}
	if isKeyword(p.tok.text) {
		return "", p.errorf("keyword %q cannot be used as %s", p.tok.text, what)
	}
	name := p.tok.text
	return name, p.advance()
}

func (p *parser) parseSpec() (*process.System, error) {
	name := "spec"
	if ok, err := p.acceptKw("specification"); err != nil {
		return nil, err
	} else if ok {
		n, err := p.ident("specification name")
		if err != nil {
			return nil, err
		}
		name = n
	}
	sys := process.NewSystem(name)
	for p.isKw("process") {
		if err := p.parseProcessDef(sys); err != nil {
			return nil, err
		}
	}
	if _, err := p.acceptKw("behaviour"); err != nil {
		return nil, err
	} else if p.isKw("behavior") {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind == tEOF {
		return nil, p.errorf("missing root behaviour")
	}
	root, err := p.parseBehavior()
	if err != nil {
		return nil, err
	}
	if err := p.checkHeight(); err != nil {
		return nil, err
	}
	if p.tok.kind != tEOF {
		return nil, p.errorf("unexpected %s after root behaviour", p.tok)
	}
	sys.SetRoot(root)
	return sys, nil
}

func (p *parser) parseProcessDef(sys *process.System) error {
	if err := p.advance(); err != nil { // consume "process"
		return err
	}
	name, err := p.ident("process name")
	if err != nil {
		return err
	}
	var params []string
	if p.tok.kind == tLParen {
		if err := p.advance(); err != nil {
			return err
		}
		for {
			param, err := p.ident("parameter name")
			if err != nil {
				return err
			}
			params = append(params, param)
			if p.tok.kind != tComma {
				break
			}
			if err := p.advance(); err != nil {
				return err
			}
		}
		if err := p.expect(tRParen); err != nil {
			return err
		}
	}
	if err := p.expect(tDefine); err != nil {
		return err
	}
	body, err := p.parseBehavior()
	if err != nil {
		return err
	}
	if err := p.checkHeight(); err != nil {
		return err
	}
	if !p.isKw("endproc") {
		return p.errorf("expected 'endproc', got %s", p.tok)
	}
	if err := p.advance(); err != nil {
		return err
	}
	sys.Define(name, params, body)
	return nil
}

// parseBehavior parses a full behaviour (sequential composition level,
// the weakest-binding operator; then disabling, parallel, choice, prefix).
func (p *parser) parseBehavior() (process.Behavior, error) {
	left, err := p.parseDisable()
	if err != nil {
		return nil, err
	}
	h := p.height
	for p.tok.kind == tSeq {
		if err := p.advance(); err != nil {
			return nil, err
		}
		var accept []string
		if ok, err := p.acceptKw("accept"); err != nil {
			return nil, err
		} else if ok {
			for {
				v, err := p.ident("accept variable")
				if err != nil {
					return nil, err
				}
				accept = append(accept, v)
				if p.tok.kind != tComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if ok, err := p.acceptKw("in"); err != nil {
				return nil, err
			} else if !ok {
				return nil, p.errorf("expected 'in' after accept variables")
			}
		}
		right, err := p.parseDisable()
		if err != nil {
			return nil, err
		}
		h = p.join(h)
		left = process.Seq{A: left, Accept: accept, B: right}
	}
	return left, nil
}

// parseDisable parses the disabling level: par ("[>" par)*.
func (p *parser) parseDisable() (process.Behavior, error) {
	left, err := p.parsePar()
	if err != nil {
		return nil, err
	}
	h := p.height
	for p.tok.kind == tDisable {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parsePar()
		if err != nil {
			return nil, err
		}
		h = p.join(h)
		left = process.Disable{A: left, B: right}
	}
	return left, nil
}

func (p *parser) parsePar() (process.Behavior, error) {
	left, err := p.parseChoice()
	if err != nil {
		return nil, err
	}
	h := p.height
	for {
		switch p.tok.kind {
		case tInter:
			if err := p.advance(); err != nil {
				return nil, err
			}
			right, err := p.parseChoice()
			if err != nil {
				return nil, err
			}
			h = p.join(h)
			left = process.Par{A: left, B: right}
		case tParOpen:
			if err := p.advance(); err != nil {
				return nil, err
			}
			var gates []string
			for {
				g, err := p.ident("gate name")
				if err != nil {
					return nil, err
				}
				gates = append(gates, g)
				if p.tok.kind != tComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if err := p.expect(tParClose); err != nil {
				return nil, err
			}
			right, err := p.parseChoice()
			if err != nil {
				return nil, err
			}
			h = p.join(h)
			left = process.SyncPar(gates, left, right)
		default:
			return left, nil
		}
	}
}

func (p *parser) parseChoice() (process.Behavior, error) {
	left, err := p.parsePrefix()
	if err != nil {
		return nil, err
	}
	h := p.height
	for p.tok.kind == tChoice {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parsePrefix()
		if err != nil {
			return nil, err
		}
		h = p.join(h)
		left = process.Choice{A: left, B: right}
	}
	return left, nil
}

func (p *parser) parsePrefix() (process.Behavior, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch {
	case p.tok.kind == tLBrack:
		// Guard: [expr] -> prefix
		if err := p.advance(); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		hc := p.height
		if err := p.expect(tRBrack); err != nil {
			return nil, err
		}
		if err := p.expect(tArrow); err != nil {
			return nil, err
		}
		body, err := p.parsePrefix()
		if err != nil {
			return nil, err
		}
		p.built(hc, p.height)
		return process.Guard{Cond: cond, B: body}, nil

	case p.isKw("hide"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		var gates []string
		for {
			g, err := p.ident("gate name")
			if err != nil {
				return nil, err
			}
			gates = append(gates, g)
			if p.tok.kind != tComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if ok, err := p.acceptKw("in"); err != nil {
			return nil, err
		} else if !ok {
			return nil, p.errorf("expected 'in' after hidden gates")
		}
		body, err := p.parsePrefix()
		if err != nil {
			return nil, err
		}
		p.built(p.height)
		return process.HideIn(gates, body), nil

	case p.isKw("rename"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		m := map[string]string{}
		for {
			from, err := p.ident("gate name")
			if err != nil {
				return nil, err
			}
			if err := p.expect(tArrow); err != nil {
				return nil, err
			}
			to, err := p.ident("gate name")
			if err != nil {
				return nil, err
			}
			m[from] = to
			if p.tok.kind != tComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if ok, err := p.acceptKw("in"); err != nil {
			return nil, err
		} else if !ok {
			return nil, p.errorf("expected 'in' after renamings")
		}
		body, err := p.parsePrefix()
		if err != nil {
			return nil, err
		}
		p.built(p.height)
		return process.Rename{Map: m, B: body}, nil

	case p.isKw("let"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		v, err := p.ident("let variable")
		if err != nil {
			return nil, err
		}
		if err := p.expect(tDefine); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		he := p.height
		if ok, err := p.acceptKw("in"); err != nil {
			return nil, err
		} else if !ok {
			return nil, p.errorf("expected 'in' after let binding")
		}
		body, err := p.parsePrefix()
		if err != nil {
			return nil, err
		}
		p.built(he, p.height)
		return process.Let{Var: v, E: e, B: body}, nil

	case p.isKw("stop"):
		p.height = 1
		return process.Stop{}, p.advance()

	case p.isKw("exit"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		var results []process.Expr
		h := 0
		if p.tok.kind == tLParen {
			if err := p.advance(); err != nil {
				return nil, err
			}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				h = max(h, p.height)
				results = append(results, e)
				if p.tok.kind != tComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if err := p.expect(tRParen); err != nil {
				return nil, err
			}
		}
		p.built(h)
		return process.Exit{Results: results}, nil

	case p.tok.kind == tLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		b, err := p.parseBehavior()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return b, nil

	case p.tok.kind == tIdent:
		if isKeyword(p.tok.text) {
			return nil, p.errorf("unexpected keyword %q in behaviour", p.tok.text)
		}
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		// Action prefix when followed by offers or ';'.
		if p.tok.kind == tBang || p.tok.kind == tQuest || p.tok.kind == tSemi {
			return p.parseActionTail(name)
		}
		// Process instantiation.
		var args []process.Expr
		h := 0
		if p.tok.kind == tLParen {
			if err := p.advance(); err != nil {
				return nil, err
			}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				h = max(h, p.height)
				args = append(args, e)
				if p.tok.kind != tComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if err := p.expect(tRParen); err != nil {
				return nil, err
			}
		}
		p.built(h)
		return process.Call{Proc: name, Args: args}, nil

	default:
		return nil, p.errorf("unexpected %s in behaviour", p.tok)
	}
}

// parseActionTail parses the offers and continuation of an action prefix
// whose gate name has already been consumed.
func (p *parser) parseActionTail(gate string) (process.Behavior, error) {
	var offers []process.Offer
	h := 0
	for {
		switch p.tok.kind {
		case tBang:
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			h = max(h, p.height)
			offers = append(offers, process.Send(e))
			continue
		case tQuest:
			if err := p.advance(); err != nil {
				return nil, err
			}
			v, err := p.ident("offer variable")
			if err != nil {
				return nil, err
			}
			if err := p.expect(tColon); err != nil {
				return nil, err
			}
			if p.isKw("bool") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				offers = append(offers, process.RecvBool(v))
				continue
			}
			lo, err := p.parseSignedInt()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tDotDot); err != nil {
				return nil, err
			}
			hi, err := p.parseSignedInt()
			if err != nil {
				return nil, err
			}
			offers = append(offers, process.Recv(v, lo, hi))
			continue
		}
		break
	}
	if err := p.expect(tSemi); err != nil {
		return nil, err
	}
	cont, err := p.parsePrefix()
	if err != nil {
		return nil, err
	}
	p.built(h, p.height)
	return process.Prefix{Gate: gate, Offers: offers, Cont: cont}, nil
}

func (p *parser) parseSignedInt() (int, error) {
	neg := false
	if p.tok.kind == tMinus {
		neg = true
		if err := p.advance(); err != nil {
			return 0, err
		}
	}
	if p.tok.kind != tInt {
		return 0, p.errorf("expected integer, got %s", p.tok)
	}
	n := p.tok.n
	if neg {
		n = -n
	}
	return n, p.advance()
}
