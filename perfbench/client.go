package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"multival"
	"multival/internal/serve"
)

// server is an in-process serve.Server on a loopback listener plus the
// one client the closed loop uses.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

// startServer starts a server with pinned engine and queue workers and
// the given artifact-cache bound (0 selects the server's default).
func startServer(cacheEntries int) (*server, error) {
	srv := serve.New(serve.Config{
		Engine:       multival.NewEngine(multival.WithWorkers(engineWorkers)),
		QueueWorkers: engineWorkers,
		QueueDepth:   4,
		CacheEntries: cacheEntries,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		done:   make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return s, nil
}

// close shuts the listener down, waits for the serving goroutine, and
// drains the server's queue.
func (s *server) close() {
	if s == nil {
		return
	}
	_ = s.hs.Shutdown(context.Background())
	<-s.done
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// post sends body (JSON-encoded unless it is already bytes) and decodes
// a 200 response into out; any other status is an error.
func (s *server) post(ctx context.Context, path string, body any, out any) error {
	var buf []byte
	switch b := body.(type) {
	case []byte:
		buf = b
	default:
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	return s.do(req, out)
}

func (s *server) stats(ctx context.Context) (serve.StatsBody, error) {
	var st serve.StatsBody
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	return st, s.do(req, &st)
}

var errStatus = errors.New("unexpected HTTP status")

func (s *server) do(req *http.Request, out any) error {
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %w %d: %s", req.Method, req.URL.Path, errStatus, resp.StatusCode, body)
	}
	return json.Unmarshal(body, out)
}

// servedLog records what the untraced phase of a served workload saw:
// per-op server-side timing blocks and the /v1/stats snapshots around
// the timed phase.
type servedLog struct {
	srv           *server
	serverMS      []float64 // per op: server-reported duration_ms
	stageMS       []float64 // per op: summed stage ms
	decorateMS    float64   // summed "decorate" stage ms over all ops
	before, after serve.StatsBody
}

func (l *servedLog) record(results ...*serve.Result) {
	var dur, stages float64
	for _, r := range results {
		dur += r.DurationMS
		for _, st := range r.Stages {
			stages += st.MS
			if st.Stage == "decorate" {
				l.decorateMS += st.MS
			}
		}
	}
	l.serverMS = append(l.serverMS, dur)
	l.stageMS = append(l.stageMS, stages)
}

func (l *servedLog) beginTimed(ctx context.Context) error {
	l.serverMS, l.stageMS, l.decorateMS = nil, nil, 0
	st, err := l.srv.stats(ctx)
	l.before = st
	return err
}

func (l *servedLog) endTimed(ctx context.Context) error {
	st, err := l.srv.stats(ctx)
	l.after = st
	return err
}

// metrics derives the serve layer's per-layer figures: cache and build
// deltas from /v1/stats, server time outside any stage (queue wait and
// decoding), and the serve overhead — each op's HTTP round trip minus the
// engine time its replay spent inside layer spans.
func (l *servedLog) metrics(tr *tracer, lat []time.Duration) map[string]float64 {
	vals := map[string]float64{}
	c0, c1 := l.before.Cache, l.after.Cache
	hits := float64(c1.Hits - c0.Hits + c1.Shared - c0.Shared)
	if lookups := hits + float64(c1.Misses-c0.Misses); lookups > 0 {
		vals["serve.cache_hit_ratio"] = hits / lookups
	}
	vals["serve.cache_hits"] = hits
	b := l.after.Builds.Sub(l.before.Builds)
	vals["serve.builds.family"] = float64(b.Family)
	vals["serve.builds.functional"] = float64(b.Functional)
	vals["serve.builds.perf"] = float64(b.Perf)
	vals["serve.builds.measure"] = float64(b.Measure)
	vals["serve.builds.check"] = float64(b.Check)

	var wait, overhead []float64
	var self, stages float64
	engine := tr.engineTimes()
	for i, d := range lat {
		o := d.Seconds() - engine[fmt.Sprintf("op-%d", i)]
		overhead = append(overhead, 1000*o)
		self += max(o, 0)
		if i < len(l.serverMS) {
			wait = append(wait, max(l.serverMS[i]-l.stageMS[i], 0))
			stages += l.stageMS[i]
		}
	}
	vals["serve.calls"] = float64(len(lat))
	vals["serve.self_s"] = self
	vals["serve.overhead_ms_p50"] = median(overhead)
	vals["serve.queue_wait_ms"] = median(wait)
	if stages > 0 {
		vals["serve.stages.decorate_share"] = l.decorateMS / stages
	}
	return vals
}
