package lotos

import (
	"errors"
	"strings"
	"testing"

	"multival/internal/engine"
	"multival/internal/process"
)

func TestNestingBound(t *testing.T) {
	n := MaxNesting
	paren := func(k int, body string) string {
		return strings.Repeat("(", k) + body + strings.Repeat(")", k)
	}
	for _, c := range []struct {
		name     string
		ok, deep string
	}{
		{"parentheses", paren(n-2, "a; stop"), paren(10<<20, "a; stop")},
		{"prefix chain", strings.Repeat("a; ", n-1) + "stop", strings.Repeat("a; ", n) + "stop"},
		{"choice chain", strings.Repeat("a; stop [] ", n-2) + "a; stop", strings.Repeat("a; stop [] ", n-1) + "a; stop"},
		{"parallel chain", strings.Repeat("a; stop ||| ", n-2) + "a; stop", strings.Repeat("a; stop ||| ", n-1) + "a; stop"},
		{"guards", strings.Repeat("[true] -> ", n-1) + "stop", strings.Repeat("[true] -> ", n) + "stop"},
		{"expression parentheses", "g !" + paren(n-2, "1") + "; stop", "g !" + paren(10<<20, "1") + "; stop"},
		{"sum", "g !(" + strings.Repeat("1 + ", n-3) + "1); stop", "g !(" + strings.Repeat("1 + ", n) + "1); stop"},
		{"negation", "[" + strings.Repeat("not ", n-3) + "true] -> stop", "[" + strings.Repeat("not ", n) + "true] -> stop"},
		{"minus", "g !(" + strings.Repeat("- ", n-3) + "1); stop", "g !(" + strings.Repeat("- ", n) + "1); stop"},
		{"process body", "process P := " + strings.Repeat("a; ", n-1) + "P endproc behaviour P",
			"process P := " + strings.Repeat("a; ", n) + "P endproc behaviour P"},
	} {
		if _, err := Parse(c.ok); err != nil {
			t.Errorf("%s at the bound: %v", c.name, err)
		}
		_, err := Parse(c.deep)
		if !errors.Is(err, engine.ErrNestingDepth) {
			t.Errorf("%s beyond the bound: %v", c.name, err)
		}
		var perr *Error
		if !errors.As(err, &perr) || perr.Line < 1 {
			t.Errorf("%s beyond the bound: no position in %v", c.name, err)
		}
	}
}

// A specification at the bound generates: the terms the parser admits
// are shallow enough for every recursive pass over them.
func TestNestingBoundGenerates(t *testing.T) {
	sys, err := Parse(strings.Repeat("a; ", MaxNesting-1) + "stop")
	if err != nil {
		t.Fatal(err)
	}
	l, err := sys.Generate(process.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumStates() != MaxNesting {
		t.Errorf("%d states, want %d", l.NumStates(), MaxNesting)
	}
}
