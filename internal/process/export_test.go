package process

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"multival/internal/aut"
	"multival/internal/lts"
)

// While this package's tests run, GenerateCtx runs both generators on
// every system it is given, the models that other packages build
// included, and records each difference in the .aut bytes, the
// Freeze().Hash() digest or the error text.
var differ struct {
	sync.Mutex
	compared   int
	mismatches []string
}

func TestMain(m *testing.M) {
	generate = func(s *System, ctx context.Context, opts GenOptions) (*lts.LTS, error) {
		got, err := s.generateTerms(ctx, opts)
		ref := opts
		ref.Progress = nil
		want, werr := generateByString(ctx, s, ref)
		msg := compareGenerations(got, err, want, werr)
		differ.Lock()
		defer differ.Unlock()
		differ.compared++
		if msg != "" {
			differ.mismatches = append(differ.mismatches, fmt.Sprintf("%s: %s", s.Name, msg))
		}
		return got, err
	}
	code := m.Run()
	if left := TakeMismatches(); len(left) > 0 {
		fmt.Fprintf(os.Stderr, "hash-consed and string-keyed generation differ:\n")
		for _, m := range left {
			fmt.Fprintf(os.Stderr, "  %s\n", m)
		}
		code = 1
	}
	os.Exit(code)
}

// compareGenerations describes how two generation outcomes differ, or
// returns "" when they are the same.
func compareGenerations(got *lts.LTS, err error, want *lts.LTS, werr error) string {
	switch {
	case err != nil || werr != nil:
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			return fmt.Sprintf("error %v, reference error %v", err, werr)
		}
		return ""
	case got.Freeze().Hash() != want.Freeze().Hash():
		return fmt.Sprintf("hash %s, reference %s", got.Freeze().Hash(), want.Freeze().Hash())
	case aut.WriteString(got) != aut.WriteString(want):
		return "same hash but different .aut bytes"
	}
	return ""
}

// Compared returns how many generations have been checked against the
// reference so far.
func Compared() int {
	differ.Lock()
	defer differ.Unlock()
	return differ.compared
}

// TakeMismatches returns and clears the recorded differences.
func TakeMismatches() []string {
	differ.Lock()
	defer differ.Unlock()
	m := differ.mismatches
	differ.mismatches = nil
	return m
}
