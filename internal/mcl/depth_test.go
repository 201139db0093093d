package mcl

import (
	"errors"
	"strings"
	"testing"

	"multival/internal/engine"
)

func TestNestingBound(t *testing.T) {
	n := MaxNesting
	for _, c := range []struct {
		name     string
		ok, deep string
	}{
		{"parentheses", strings.Repeat("(", n-1) + "true" + strings.Repeat(")", n-1),
			strings.Repeat("(", 10<<20) + "true" + strings.Repeat(")", 10<<20)},
		{"negation", strings.Repeat("not ", n-1) + "true", strings.Repeat("not ", n) + "true"},
		{"modalities", strings.Repeat("<a> [b] ", (n-1)/2) + "true", strings.Repeat("<a> [b] ", n/2) + "true"},
		{"conjunction chain", strings.Repeat("true and ", n-1) + "true", strings.Repeat("true and ", n) + "true"},
		{"implication chain", strings.Repeat("true -> ", n-1) + "true", strings.Repeat("true -> ", n) + "true"},
		{"fixpoints", strings.Repeat("mu X . ", n-1) + "X", strings.Repeat("mu X . ", n) + "X"},
		{"action formula", "<" + strings.Repeat("~", n-2) + "a> true", "<" + strings.Repeat("~", n) + "a> true"},
		{"action chain", "<" + strings.Repeat("a | ", n-2) + "a> true", "<" + strings.Repeat("(", 1<<20) + "a" + strings.Repeat(")", 1<<20) + "> true"},
	} {
		if _, err := Parse(c.ok); err != nil {
			t.Errorf("%s at the bound: %v", c.name, err)
		}
		_, err := Parse(c.deep)
		if !errors.Is(err, engine.ErrNestingDepth) {
			t.Errorf("%s beyond the bound: %v", c.name, err)
		}
		if _, err := ParseQuery(c.deep); !errors.Is(err, engine.ErrNestingDepth) {
			t.Errorf("%s beyond the bound as a query: %v", c.name, err)
		}
	}
}
