package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// layers are the program's modules as the traced run names them. A span
// named after one of them wraps one call into that layer's public
// functions; the root span of each op is named rootSpan.
var layers = []string{
	"process", "mcl", "compose", "bisim", "aut", "lts",
	"imc.decorate", "imc.extract", "imc.lump", "markov", "serve", "sweep",
}

// rootSpan names the span around one replayed op (or one replayed set-up
// step). Its self time is the "(uncovered)" row: time outside any layer.
const rootSpan = "op"

// span is one traced call: its layer, interval and parent, the op it
// belongs to, and the bytes allocated while it ran.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Op     string  `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Alloc  uint64  `json:"alloc_bytes"`

	alloc0 uint64
}

func (s *span) dur() float64 { return s.End - s.Start }

// tracer keeps the spans of a traced run in memory plus the counts
// recorded at the same layer boundaries; writeFile dumps them when the
// run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	stack  []int
	op     string
	counts map[string]float64
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		counts: map[string]float64{},
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Op: t.op, Name: name,
		Start: time.Since(t.t0).Seconds(), alloc0: t.allocs(),
	})
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) end() {
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[i]
	s.End = time.Since(t.t0).Seconds()
	s.Alloc = t.allocs() - s.alloc0
}

// opSpan runs fn under the root span of op id.
func (t *tracer) opSpan(id string, fn func() error) error {
	t.op = id
	t.begin(rootSpan)
	defer t.end()
	return fn()
}

// call runs fn under a span of the named layer.
func (t *tracer) call(layer string, fn func() error) error {
	t.begin(layer)
	defer t.end()
	return fn()
}

// add accumulates a count recorded at a layer boundary.
func (t *tracer) add(name string, v float64) { t.counts[name] += v }

// layerRow is one line of the per-layer table.
type layerRow struct {
	calls int
	self  float64 // seconds
	alloc float64 // bytes
}

// table folds the spans into per-layer rows. A span's self time is its
// duration minus the part of it its children cover; a root span's self
// time goes to the "(uncovered)" row, keyed rootSpan.
func (t *tracer) table() map[string]*layerRow {
	childDur := make([]float64, len(t.spans))
	childAlloc := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childDur[s.Parent] += s.dur()
			childAlloc[s.Parent] += s.Alloc
		}
	}
	rows := map[string]*layerRow{}
	for i, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{}
			rows[s.Name] = r
		}
		r.calls++
		r.self += s.dur() - childDur[i]
		r.alloc += float64(s.Alloc) - float64(min(childAlloc[i], s.Alloc))
	}
	return rows
}

// engineTimes maps each op to the time it spent inside layer spans: its
// root's duration minus the root's own (uncovered) self time.
func (t *tracer) engineTimes() map[string]float64 {
	times := map[string]float64{}
	for _, s := range t.spans {
		if s.Parent >= 0 && t.spans[s.Parent].Name == rootSpan {
			times[s.Op] += s.dur()
		}
	}
	return times
}

// writeFile dumps the spans as JSON to dir/name.
func (t *tracer) writeFile(dir, name string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// printTable writes the human-readable per-layer table.
func printTable(w io.Writer, rows map[string]*layerRow, total float64) {
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return rows[names[i]].self > rows[names[j]].self })
	fmt.Fprintf(w, "%-14s %8s %10s %7s %10s\n", "layer", "calls", "self_s", "share", "alloc_mb")
	for _, n := range names {
		r := rows[n]
		label := n
		if n == rootSpan {
			label = "(uncovered)"
		}
		share := 0.0
		if total > 0 {
			share = r.self / total
		}
		fmt.Fprintf(w, "%-14s %8d %10.4f %6.1f%% %10.2f\n", label, r.calls, r.self, 100*share, r.alloc/(1<<20))
	}
}
