package mcl

import (
	"fmt"
	"strings"
	"unicode"

	"multival/internal/engine"
)

// Parse parses a formula in the concrete syntax below (a pragmatic subset
// of the CADP EVALUATOR input language):
//
//	formula  ::= "mu" IDENT "." formula | "nu" IDENT "." formula
//	           | implication
//	impl     ::= disj ("->" formula)?
//	disj     ::= conj ("or" conj)*
//	conj     ::= unary ("and" unary)*
//	unary    ::= "not" unary
//	           | "<" actf ">" unary | "[" actf "]" unary
//	           | "mu" IDENT "." formula | "nu" IDENT "." formula
//	           | "true" | "false" | IDENT | "(" formula ")"
//	actf     ::= adisj
//	adisj    ::= aconj ("|" aconj)*
//	aconj    ::= aunary ("&" aunary)*
//	aunary   ::= "~" aunary | "true" | "any" | "tau" | IDENT
//	           | STRING | "/" REGEX "/" | "(" actf ")"
//
// IDENT is [A-Za-z_][A-Za-z0-9_]*. STRING is double-quoted with backslash
// escapes. Inside an action formula, an IDENT is an action literal; in a
// state formula it is a fixpoint variable.
func Parse(input string) (Formula, error) {
	p := &parser{src: input}
	p.next()
	f, err := p.parseFormula()
	if err != nil {
		return nil, err
	}
	if p.height > MaxNesting {
		return nil, p.tooDeep()
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected %q after formula", p.tok.text)
	}
	return f, nil
}

// MustParse is Parse that panics on error; for compile-time constant
// formulas.
func MustParse(input string) Formula {
	f, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return f
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokRegex
	tokLAngle // <
	tokRAngle // >
	tokLBrack // [
	tokRBrack // ]
	tokLParen // (
	tokRParen // )
	tokDot    // .
	tokArrow  // ->
	tokTilde  // ~
	tokAmp    // &
	tokPipe   // |
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type parser struct {
	src string
	pos int
	tok token
	// depth is the current depth of recursive descent; height is the
	// nesting height of the formula parsed last.
	depth, height int
}

// MaxNesting bounds how deeply a formula may nest: the depth of
// recursive descent (parentheses, operators, fixpoints) and the height
// of the formula, action formulas included. Deeper input is rejected
// with an error wrapping engine.ErrNestingDepth; it would otherwise
// exhaust the goroutine stack of the parser or of the recursive
// evaluation, and a stack overflow cannot be recovered.
const MaxNesting = 1000

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("mcl: parse error at offset %d: %s", p.tok.pos, fmt.Sprintf(format, args...))
}

// enter counts one more level of recursive descent; leave undoes it.
func (p *parser) enter() error {
	p.depth++
	if p.depth > MaxNesting {
		return p.tooDeep()
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// built records the height of the formula just built over subformulas
// of the given heights.
func (p *parser) built(subformulas ...int) {
	h := 0
	for _, s := range subformulas {
		h = max(h, s)
	}
	p.height = h + 1
}

// join records the height of a binary formula whose left operand has
// height left and whose right operand was parsed last, and returns it.
func (p *parser) join(left int) int {
	p.built(left, p.height)
	return p.height
}

func (p *parser) tooDeep() error {
	return fmt.Errorf("mcl: parse error at offset %d: nesting deeper than %d levels: %w", p.tok.pos, MaxNesting, engine.ErrNestingDepth)
}

func (p *parser) next() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
	start := p.pos
	if p.pos >= len(p.src) {
		p.tok = token{tokEOF, "", start}
		return
	}
	c := p.src[p.pos]
	switch {
	case c == '<':
		p.pos++
		p.tok = token{tokLAngle, "<", start}
	case c == '>':
		p.pos++
		p.tok = token{tokRAngle, ">", start}
	case c == '[':
		p.pos++
		p.tok = token{tokLBrack, "[", start}
	case c == ']':
		p.pos++
		p.tok = token{tokRBrack, "]", start}
	case c == '(':
		p.pos++
		p.tok = token{tokLParen, "(", start}
	case c == ')':
		p.pos++
		p.tok = token{tokRParen, ")", start}
	case c == '.':
		p.pos++
		p.tok = token{tokDot, ".", start}
	case c == '~':
		p.pos++
		p.tok = token{tokTilde, "~", start}
	case c == '&':
		p.pos++
		p.tok = token{tokAmp, "&", start}
	case c == '|':
		p.pos++
		p.tok = token{tokPipe, "|", start}
	case c == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '>':
		p.pos += 2
		p.tok = token{tokArrow, "->", start}
	case c == '"':
		p.pos++
		var b strings.Builder
		for p.pos < len(p.src) && p.src[p.pos] != '"' {
			if p.src[p.pos] == '\\' && p.pos+1 < len(p.src) {
				p.pos++
			}
			b.WriteByte(p.src[p.pos])
			p.pos++
		}
		if p.pos >= len(p.src) {
			p.tok = token{tokEOF, "unterminated string", start}
			return
		}
		p.pos++ // closing quote
		p.tok = token{tokString, b.String(), start}
	case c == '/':
		p.pos++
		var b strings.Builder
		for p.pos < len(p.src) && p.src[p.pos] != '/' {
			if p.src[p.pos] == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '/' {
				p.pos++ // \/ escapes a slash inside the pattern
			}
			b.WriteByte(p.src[p.pos])
			p.pos++
		}
		if p.pos >= len(p.src) {
			p.tok = token{tokEOF, "unterminated regex", start}
			return
		}
		p.pos++
		p.tok = token{tokRegex, b.String(), start}
	case isIdentStart(c):
		for p.pos < len(p.src) && isIdentPart(p.src[p.pos]) {
			p.pos++
		}
		p.tok = token{tokIdent, p.src[start:p.pos], start}
	default:
		p.tok = token{tokEOF, fmt.Sprintf("invalid character %q", c), start}
	}
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

func (p *parser) expect(kind tokKind, what string) error {
	if p.tok.kind != kind {
		return p.errorf("expected %s, got %q", what, p.tok.text)
	}
	p.next()
	return nil
}

func (p *parser) parseFormula() (Formula, error) {
	return p.parseImpl()
}

func (p *parser) parseImpl() (Formula, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	left, err := p.parseDisj()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokArrow {
		h := p.height
		p.next()
		right, err := p.parseImpl()
		if err != nil {
			return nil, err
		}
		p.join(h)
		return Implies(left, right), nil
	}
	return left, nil
}

func (p *parser) parseDisj() (Formula, error) {
	left, err := p.parseConj()
	if err != nil {
		return nil, err
	}
	h := p.height
	for p.tok.kind == tokIdent && p.tok.text == "or" {
		p.next()
		right, err := p.parseConj()
		if err != nil {
			return nil, err
		}
		h = p.join(h)
		left = Or(left, right)
	}
	return left, nil
}

func (p *parser) parseConj() (Formula, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	h := p.height
	for p.tok.kind == tokIdent && p.tok.text == "and" {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		h = p.join(h)
		left = And(left, right)
	}
	return left, nil
}

func (p *parser) parseUnary() (Formula, error) {
	p.height = 1
	switch {
	case p.tok.kind == tokIdent && p.tok.text == "not":
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		p.next()
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.built(p.height)
		return Not(f), nil

	case p.tok.kind == tokLAngle:
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		p.next()
		act, err := p.parseActDisj()
		if err != nil {
			return nil, err
		}
		ha := p.height
		if err := p.expect(tokRAngle, "'>'"); err != nil {
			return nil, err
		}
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.built(ha, p.height)
		return Dia(act, f), nil

	case p.tok.kind == tokLBrack:
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		p.next()
		act, err := p.parseActDisj()
		if err != nil {
			return nil, err
		}
		ha := p.height
		if err := p.expect(tokRBrack, "']'"); err != nil {
			return nil, err
		}
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.built(ha, p.height)
		return Box(act, f), nil

	case p.tok.kind == tokIdent && (p.tok.text == "mu" || p.tok.text == "nu"):
		kw := p.tok.text
		p.next()
		if p.tok.kind != tokIdent {
			return nil, p.errorf("expected variable after %s", kw)
		}
		name := p.tok.text
		p.next()
		if err := p.expect(tokDot, "'.'"); err != nil {
			return nil, err
		}
		body, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		p.built(p.height)
		if kw == "mu" {
			return Mu(name, body), nil
		}
		return Nu(name, body), nil

	case p.tok.kind == tokIdent && p.tok.text == "true":
		p.next()
		return True(), nil

	case p.tok.kind == tokIdent && p.tok.text == "false":
		p.next()
		return False(), nil

	case p.tok.kind == tokIdent:
		name := p.tok.text
		p.next()
		return Var(name), nil

	case p.tok.kind == tokLParen:
		p.next()
		f, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return f, nil

	default:
		return nil, p.errorf("unexpected %q in formula", p.tok.text)
	}
}

func (p *parser) parseActDisj() (ActionFormula, error) {
	left, err := p.parseActConj()
	if err != nil {
		return nil, err
	}
	h := p.height
	for p.tok.kind == tokPipe {
		p.next()
		right, err := p.parseActConj()
		if err != nil {
			return nil, err
		}
		h = p.join(h)
		left = OrAction(left, right)
	}
	return left, nil
}

func (p *parser) parseActConj() (ActionFormula, error) {
	left, err := p.parseActUnary()
	if err != nil {
		return nil, err
	}
	h := p.height
	for p.tok.kind == tokAmp {
		p.next()
		right, err := p.parseActUnary()
		if err != nil {
			return nil, err
		}
		h = p.join(h)
		left = AndAction(left, right)
	}
	return left, nil
}

func (p *parser) parseActUnary() (ActionFormula, error) {
	p.height = 1
	switch p.tok.kind {
	case tokTilde:
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		p.next()
		a, err := p.parseActUnary()
		if err != nil {
			return nil, err
		}
		p.built(p.height)
		return NotAction(a), nil
	case tokIdent:
		text := p.tok.text
		p.next()
		switch text {
		case "true", "any":
			return AnyAction(), nil
		case "tau":
			return TauAction(), nil
		default:
			return Action(text), nil
		}
	case tokString:
		text := p.tok.text
		p.next()
		return Action(text), nil
	case tokRegex:
		pat := p.tok.text
		p.next()
		return ActionRegex(pat)
	case tokLParen:
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		p.next()
		a, err := p.parseActDisj()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return a, nil
	default:
		return nil, p.errorf("unexpected %q in action formula", p.tok.text)
	}
}
