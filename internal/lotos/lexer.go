// Package lotos provides a textual front-end for the process calculus of
// package process, with a concrete syntax close to LOTOS (ISO 8807) as
// used in the Multival project. A specification is a list of process
// definitions followed by a root behaviour:
//
//	(* a one-place buffer *)
//	process Buf :=
//	    put ?x:0..3 ; get !x ; Buf
//	endproc
//	behaviour
//	    hide mid in (Buf [] stop)
//
// Supported constructs: action prefix with offers (!e, ?x:lo..hi, ?b:bool),
// guards [e] ->, choice [], parallel ||| and |[g1,g2]|, hiding, renaming,
// sequential composition >> (accept ... in), let, exit with results, and
// recursive process instantiation. Comments are (* ... *) or -- to end of
// line.
package lotos

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tInt
	tLParen   // (
	tRParen   // )
	tComma    // ,
	tSemi     // ;
	tBang     // !
	tQuest    // ?
	tColon    // :
	tDotDot   // ..
	tArrow    // ->
	tChoice   // []
	tLBrack   // [
	tRBrack   // ]
	tParOpen  // |[
	tParClose // ]|
	tInter    // |||
	tSeq      // >>
	tDisable  // [>
	tDefine   // :=
	tEq       // ==
	tNe       // !=
	tLt       // <
	tLe       // <=
	tGt       // >
	tGe       // >=
	tPlus     // +
	tMinus    // -
	tStar     // *
)

var tokNames = map[tokKind]string{
	tEOF: "end of input", tIdent: "identifier", tInt: "integer",
	tLParen: "'('", tRParen: "')'", tComma: "','", tSemi: "';'",
	tBang: "'!'", tQuest: "'?'", tColon: "':'", tDotDot: "'..'",
	tArrow: "'->'", tChoice: "'[]'", tLBrack: "'['", tRBrack: "']'",
	tParOpen: "'|['", tParClose: "']|'", tInter: "'|||'", tSeq: "'>>'",
	tDisable: "'[>'",
	tDefine:  "':='", tEq: "'=='", tNe: "'!='", tLt: "'<'", tLe: "'<='",
	tGt: "'>'", tGe: "'>='", tPlus: "'+'", tMinus: "'-'", tStar: "'*'",
}

type token struct {
	kind tokKind
	text string
	n    int // integer payload for tInt
	line int
	col  int
}

func (t token) String() string {
	if t.kind == tIdent || t.kind == tInt {
		return fmt.Sprintf("%q", t.text)
	}
	return tokNames[t.kind]
}

// Error is a syntax error with position information.
type Error struct {
	Line, Col int
	Msg       string
	// Err is the sentinel the error wraps, if any (engine.ErrNestingDepth).
	Err error
}

func (e *Error) Error() string {
	return fmt.Sprintf("lotos: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Unwrap returns the sentinel the error wraps, if any.
func (e *Error) Unwrap() error { return e.Err }

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (lx *lexer) errorf(format string, args ...interface{}) *Error {
	return &Error{Line: lx.line, Col: lx.col, Msg: fmt.Sprintf(format, args...)}
}

func (lx *lexer) advance(n int) {
	for i := 0; i < n && lx.pos < len(lx.src); i++ {
		if lx.src[lx.pos] == '\n' {
			lx.line++
			lx.col = 1
		} else {
			lx.col++
		}
		lx.pos++
	}
}

func (lx *lexer) peek(off int) byte {
	if lx.pos+off < len(lx.src) {
		return lx.src[lx.pos+off]
	}
	return 0
}

// skipSpace consumes whitespace and comments.
func (lx *lexer) skipSpace() error {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case unicode.IsSpace(rune(c)):
			lx.advance(1)
		case c == '-' && lx.peek(1) == '-':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.advance(1)
			}
		case c == '(' && lx.peek(1) == '*':
			startLine, startCol := lx.line, lx.col
			lx.advance(2)
			depth := 1
			for lx.pos < len(lx.src) && depth > 0 {
				if lx.src[lx.pos] == '(' && lx.peek(1) == '*' {
					depth++
					lx.advance(2)
				} else if lx.src[lx.pos] == '*' && lx.peek(1) == ')' {
					depth--
					lx.advance(2)
				} else {
					lx.advance(1)
				}
			}
			if depth > 0 {
				return &Error{Line: startLine, Col: startCol, Msg: "unterminated comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

func (lx *lexer) next() (token, error) {
	if err := lx.skipSpace(); err != nil {
		return token{}, err
	}
	line, col := lx.line, lx.col
	mk := func(k tokKind, text string, n int) token {
		return token{kind: k, text: text, n: n, line: line, col: col}
	}
	if lx.pos >= len(lx.src) {
		return mk(tEOF, "", 0), nil
	}
	c := lx.src[lx.pos]
	switch {
	case c == '(':
		lx.advance(1)
		return mk(tLParen, "(", 0), nil
	case c == ')':
		lx.advance(1)
		return mk(tRParen, ")", 0), nil
	case c == ',':
		lx.advance(1)
		return mk(tComma, ",", 0), nil
	case c == ';':
		lx.advance(1)
		return mk(tSemi, ";", 0), nil
	case c == '+':
		lx.advance(1)
		return mk(tPlus, "+", 0), nil
	case c == '*':
		lx.advance(1)
		return mk(tStar, "*", 0), nil
	case c == '!':
		if lx.peek(1) == '=' {
			lx.advance(2)
			return mk(tNe, "!=", 0), nil
		}
		lx.advance(1)
		return mk(tBang, "!", 0), nil
	case c == '?':
		lx.advance(1)
		return mk(tQuest, "?", 0), nil
	case c == ':':
		if lx.peek(1) == '=' {
			lx.advance(2)
			return mk(tDefine, ":=", 0), nil
		}
		lx.advance(1)
		return mk(tColon, ":", 0), nil
	case c == '.':
		if lx.peek(1) == '.' {
			lx.advance(2)
			return mk(tDotDot, "..", 0), nil
		}
		return token{}, lx.errorf("unexpected '.'")
	case c == '-':
		if lx.peek(1) == '>' {
			lx.advance(2)
			return mk(tArrow, "->", 0), nil
		}
		lx.advance(1)
		return mk(tMinus, "-", 0), nil
	case c == '[':
		if lx.peek(1) == ']' {
			lx.advance(2)
			return mk(tChoice, "[]", 0), nil
		}
		if lx.peek(1) == '>' {
			lx.advance(2)
			return mk(tDisable, "[>", 0), nil
		}
		lx.advance(1)
		return mk(tLBrack, "[", 0), nil
	case c == ']':
		if lx.peek(1) == '|' {
			lx.advance(2)
			return mk(tParClose, "]|", 0), nil
		}
		lx.advance(1)
		return mk(tRBrack, "]", 0), nil
	case c == '|':
		if lx.peek(1) == '|' && lx.peek(2) == '|' {
			lx.advance(3)
			return mk(tInter, "|||", 0), nil
		}
		if lx.peek(1) == '[' {
			lx.advance(2)
			return mk(tParOpen, "|[", 0), nil
		}
		return token{}, lx.errorf("unexpected '|' (use '|||' or '|[...]|')")
	case c == '>':
		if lx.peek(1) == '>' {
			lx.advance(2)
			return mk(tSeq, ">>", 0), nil
		}
		if lx.peek(1) == '=' {
			lx.advance(2)
			return mk(tGe, ">=", 0), nil
		}
		lx.advance(1)
		return mk(tGt, ">", 0), nil
	case c == '<':
		if lx.peek(1) == '=' {
			lx.advance(2)
			return mk(tLe, "<=", 0), nil
		}
		lx.advance(1)
		return mk(tLt, "<", 0), nil
	case c == '=':
		if lx.peek(1) == '=' {
			lx.advance(2)
			return mk(tEq, "==", 0), nil
		}
		return token{}, lx.errorf("unexpected '=' (use '==' for equality)")
	case c >= '0' && c <= '9':
		start := lx.pos
		for lx.pos < len(lx.src) && lx.src[lx.pos] >= '0' && lx.src[lx.pos] <= '9' {
			lx.advance(1)
		}
		text := lx.src[start:lx.pos]
		n, err := strconv.Atoi(text)
		if err != nil {
			return token{}, lx.errorf("bad integer %q", text)
		}
		return mk(tInt, text, n), nil
	case isIdentStart(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
			lx.advance(1)
		}
		return mk(tIdent, lx.src[start:lx.pos], 0), nil
	default:
		return token{}, lx.errorf("invalid character %q", string(rune(c)))
	}
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

// keywords that cannot be used as identifiers (gate, variable or process
// names).
var keywords = map[string]bool{
	"process": true, "endproc": true, "behaviour": true, "behavior": true,
	"hide": true, "rename": true, "let": true, "in": true, "accept": true,
	"stop": true, "exit": true, "bool": true, "true": true, "false": true,
	"not": true, "and": true, "or": true, "mod": true, "div": true,
	"if": true, "then": true, "else": true, "specification": true,
}

func isKeyword(s string) bool { return keywords[strings.ToLower(s)] }
