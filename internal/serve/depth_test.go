package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// deepParens nests body in n pairs of parentheses: 10 MB of them
// overflowed the goroutine stack of the recursive-descent parsers, a
// fatal error that takes the whole server down.
func deepParens(n int, body string) string {
	return strings.Repeat("(", n) + body + strings.Repeat(")", n)
}

// stillServes fails the test unless the server answers a valid solve.
func stillServes(t *testing.T, url string) {
	t.Helper()
	code, body := postJSON(t, url+"/v1/solve", map[string]any{
		"model":   chainAut(20),
		"rates":   map[string]float64{"go": 2, "hop": 1},
		"markers": []string{"go"},
	})
	if code != http.StatusOK {
		t.Fatalf("follow-up solve: status %d: %s", code, body)
	}
}

// TestDeepQueryIs4xx: an over-deep mu-calculus query in a check comes
// back as a 400 carrying the nesting_depth code.
func TestDeepQueryIs4xx(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueWorkers: 1, QueueDepth: 4})
	for _, query := range []string{
		deepParens(10<<20, "true"),
		strings.Repeat("not ", 1<<20) + "true",
		strings.Repeat("<a> ", 1<<20) + "true",
		strings.Repeat("true and ", 1<<20) + "true",
	} {
		code, body := postJSON(t, ts.URL+"/v1/solve", map[string]any{
			"model":   chainAut(20),
			"rates":   map[string]float64{"go": 2, "hop": 1},
			"markers": []string{"go"},
			"check":   []string{query},
		})
		if code != http.StatusBadRequest {
			t.Fatalf("deep query %.20q...: status %d: %.300s", query, code, body)
		}
		if e := decodeError(t, body); e.Code != "nesting_depth" {
			t.Errorf("deep query %.20q...: error %+v", query, e)
		}
		stillServes(t, ts.URL)
	}
}

// TestDeepLotosSweepIs4xx: an over-deep specification in the lotos sweep
// family fails its point with the nesting_depth code, whose status is a
// 400, and the server keeps serving.
func TestDeepLotosSweepIs4xx(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueWorkers: 1, QueueDepth: 4})
	for _, src := range []string{
		deepParens(10<<20, "a; stop"),
		strings.Repeat("a; ", 1<<20) + "stop",
		strings.Repeat("a; stop [] ", 1<<20) + "a; stop",
		"g !" + deepParens(1<<20, "1") + "; stop",
		"g !(" + strings.Repeat("1 + ", 1<<20) + "1); stop",
	} {
		code, body := postJSON(t, ts.URL+"/v1/sweeps", &SweepRequest{
			Family: "lotos",
			Params: map[string]any{"src": src, "rate_a": 2.0},
			Grid:   map[string][]any{"at": {0.0}},
		})
		if code != http.StatusOK {
			t.Fatalf("deep spec %.20q...: status %d: %.300s", src, code, body)
		}
		var resp SweepResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("decoding response: %v\nbody: %.300s", err, body)
		}
		if resp.Failed != 1 || len(resp.Results) != 1 || resp.Results[0].Error == nil {
			t.Fatalf("deep spec %.20q...: response %.300s", src, body)
		}
		if e := resp.Results[0].Error; e.Code != "nesting_depth" {
			t.Errorf("deep spec %.20q...: point error %+v", src, e)
		}
		stillServes(t, ts.URL)
	}
}
