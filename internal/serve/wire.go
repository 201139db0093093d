// This file holds the wire types: the one JSON result format shared by
// the HTTP service and the -json mode of the command-line tools
// (cmd/internal/cli re-exports these), so a client parses identical bytes
// whether a measure came over the wire or out of a local run.

package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"multival"
	"multival/internal/fault"
	"multival/internal/phasetype"
)

func init() {
	// Make the admission sentinels addressable from fault-spec strings
	// ("err=queue_full"), so chaos schedules can inject the exact errors
	// the retry machinery classifies as transient.
	fault.RegisterError("queue_full", ErrQueueFull)
	fault.RegisterError("internal", errInternal)
}

// SolveRequest is the body of POST /v1/solve: one pipeline execution —
// compose/hide/minimize/decorate/lump/solve — mirroring the Pipeline
// builder of the root package.
type SolveRequest struct {
	// Model is an inline model in Aldebaran (.aut) syntax. ModelHash
	// references a model previously uploaded to /v1/models (or solved
	// inline) by its content digest. Models/ModelHashes list composition
	// operands synchronized on the Sync gates. Exactly one of the four
	// ways of naming the model must be used.
	Model       string   `json:"model,omitempty"`
	ModelHash   string   `json:"model_hash,omitempty"`
	Models      []string `json:"models,omitempty"`
	ModelHashes []string `json:"model_hashes,omitempty"`
	Sync        []string `json:"sync,omitempty"`

	// Hide names gates replaced by the internal action before
	// minimization; Minimize names the reduction relation ("" = none).
	Hide     []string `json:"hide,omitempty"`
	Minimize string   `json:"minimize,omitempty"`

	// Rates decorates every label of a gate with an exponential delay of
	// the gate's rate; Markers keeps a visible completion event per gate
	// so its throughput stays measurable. Lump (default true) minimizes
	// the decorated model modulo strong Markovian bisimulation.
	Rates   map[string]float64 `json:"rates"`
	Markers []string           `json:"markers,omitempty"`
	Lump    *bool              `json:"lump,omitempty"`

	// At selects the transient distribution at that time instead of the
	// steady state. MeanTimeTo lists labels whose expected first-passage
	// time to report; Bounds lists labels whose throughput to bound over
	// all deterministic schedulers.
	At         *float64 `json:"at,omitempty"`
	MeanTimeTo []string `json:"mean_time_to,omitempty"`
	Bounds     []string `json:"bounds,omitempty"`

	// Check lists modal mu-calculus property queries (mcl presets like
	// "deadlock" or "reachable:LABEL", or raw formulas) evaluated
	// server-side against the functional model — after minimization,
	// before decoration. Verdicts are cached by (functional model,
	// query).
	Check []string `json:"check,omitempty"`

	// UniformScheduler resolves internal nondeterminism uniformly
	// instead of rejecting it.
	UniformScheduler bool `json:"uniform_scheduler,omitempty"`

	// IncludeProbabilities adds the per-state distribution to the result
	// (off by default: the vector is large and most clients only want
	// throughputs).
	IncludeProbabilities bool `json:"include_probabilities,omitempty"`

	// DeadlineMS overrides the server's default per-request deadline,
	// capped by the server's maximum. Workers overrides the engine
	// worker count for this request.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	Workers    int `json:"workers,omitempty"`
}

// Result is the outcome of one solve: the wire twin of
// multival.Measures plus the identities needed to reuse it (the model's
// content digest) and cache observability.
type Result struct {
	// ModelHash is the content digest of the (first) input model;
	// subsequent requests may reference it instead of re-sending the
	// model text.
	ModelHash string `json:"model_hash,omitempty"`
	// Kind is "steady" or "transient"; At is the query time of a
	// transient result.
	Kind string  `json:"kind"`
	At   float64 `json:"at,omitempty"`
	// IMCStates is the size of the (lumped) performance model,
	// CTMCStates the size of the solved chain.
	IMCStates  int `json:"imc_states,omitempty"`
	CTMCStates int `json:"ctmc_states"`
	// CacheHit reports that the measures came from the artifact cache
	// (set by the server; local CLI runs leave it false).
	CacheHit bool `json:"cache_hit,omitempty"`
	// TraceID is the request's trace identity (the inbound X-Request-Id
	// when the caller set one, minted otherwise), echoed here and in the
	// X-Request-Id response header so results correlate with server
	// logs. Server-only; local CLI runs leave it empty.
	TraceID string `json:"trace_id,omitempty"`
	// DurationMS is the request's wall time on the server, and Stages
	// attributes it to pipeline stages (executed stages only: a fully
	// cache-served request has no stages). Both are timing telemetry,
	// not part of the result's semantic identity — differential tests
	// must mask them.
	DurationMS float64       `json:"duration_ms,omitempty"`
	Stages     []StageTiming `json:"stages,omitempty"`
	// Probabilities lists the states with probability above 1e-12, in
	// CTMC state order (present only when requested).
	Probabilities []StateProb `json:"probabilities,omitempty"`
	// Throughputs maps each visible label to its occurrence rate.
	Throughputs map[string]float64 `json:"throughputs,omitempty"`
	// MeanTimes maps queried labels to expected first-passage times.
	MeanTimes map[string]float64 `json:"mean_times,omitempty"`
	// Bounds maps queried labels to [min, max] throughput over all
	// deterministic schedulers.
	Bounds map[string][2]float64 `json:"bounds,omitempty"`
	// Checks lists the model-checking verdicts of the request's property
	// queries, in request order.
	Checks []QueryCheck `json:"checks,omitempty"`
}

// StageTiming is one entry of a result's timing block: a pipeline stage
// the request actually executed and the wall time attributed to it.
type StageTiming struct {
	Stage string  `json:"stage"`
	MS    float64 `json:"ms"`
}

// QueryCheck is one server-side model-checking verdict: the query as
// submitted plus the result of evaluating it on the functional model.
type QueryCheck struct {
	Query string `json:"query"`
	CheckResult
}

// StateProb is one entry of a probability vector: the CTMC state, the
// IMC state it represents, and its probability.
type StateProb struct {
	State    int     `json:"state"`
	IMCState int     `json:"imc_state"`
	P        float64 `json:"p"`
}

// probEpsilon mirrors the text output of cmd/solve: states below it are
// not listed.
const probEpsilon = 1e-12

// ResultFromMeasures converts Measures into the wire Result. kind is
// "steady" or "transient" (at is recorded for the latter); the
// probability vector is included only when includePi is set.
func ResultFromMeasures(ms *multival.Measures, kind string, at float64, includePi bool) *Result {
	r := &Result{
		Kind:        kind,
		CTMCStates:  ms.CTMCStates,
		Throughputs: ms.Throughputs,
	}
	if kind == "transient" {
		r.At = at
	}
	if includePi {
		for i, p := range ms.Pi {
			if p > probEpsilon {
				r.Probabilities = append(r.Probabilities, StateProb{State: i, IMCState: ms.StateOf[i], P: p})
			}
		}
	}
	return r
}

// CheckResult is the wire form of a model-checking verdict (cmd/evaluate
// -json).
type CheckResult struct {
	Holds     bool     `json:"holds"`
	Formula   string   `json:"formula"`
	SatCount  int      `json:"sat_count"`
	NumStates int      `json:"num_states"`
	Witness   []string `json:"witness,omitempty"`
}

// FitResult is the wire form of a phase-type fit (cmd/evaluate -fit):
// the sample statistics, the fitted distribution, and its rates spelled
// as sweep-usable parameters (keys ready for a sweep request's params).
type FitResult struct {
	N            int     `json:"n"`
	Mean         float64 `json:"mean"`
	SCV          float64 `json:"scv"`
	Distribution string  `json:"distribution"`
	Phases       int     `json:"phases"`
	// FittedMean/FittedSCV are the moments of the fitted distribution
	// (the SCV may differ from the sample's on the Erlang branch, which
	// matches it only from below).
	FittedMean float64 `json:"fitted_mean"`
	FittedSCV  float64 `json:"fitted_scv"`
	// Params holds the distribution's defining rates: "rate" for
	// exponential/Erlang phases, "rate1"/"rate2"/"p" for a two-phase
	// Coxian. These plug directly into rate parameters of a sweep.
	Params map[string]float64 `json:"params"`
}

// FitResultFrom assembles the wire form of a fitted distribution. The
// parameter spelling depends on the shape MomentMatch2/FitFixedDelay can
// produce: one "rate" for exponential and Erlang fits (all phases share
// the rate), "rate1"/"rate2"/"p" for the two-phase Coxian.
func FitResultFrom(d *phasetype.Distribution, st phasetype.SampleStats) *FitResult {
	k := d.NumPhases()
	res := &FitResult{
		N:            st.N,
		Mean:         st.Mean,
		SCV:          st.SCV,
		Distribution: d.Name,
		Phases:       k,
		FittedMean:   d.Mean(),
		FittedSCV:    d.SCV(),
		Params:       map[string]float64{},
	}
	// Total outflow rate of each phase.
	total := make([]float64, k)
	for i := 0; i < k; i++ {
		total[i] = d.Exit[i]
		for j := 0; j < k; j++ {
			total[i] += d.Rates[i][j]
		}
	}
	uniform := true
	for _, t := range total[1:] {
		if math.Abs(t-total[0]) > 1e-9*total[0] {
			uniform = false
			break
		}
	}
	switch {
	case uniform:
		res.Params["rate"] = total[0]
	case k == 2:
		res.Params["rate1"] = total[0]
		res.Params["rate2"] = total[1]
		res.Params["p"] = d.Rates[0][1] / total[0]
	default:
		for i, t := range total {
			res.Params[fmt.Sprintf("rate%d", i+1)] = t
		}
	}
	return res
}

// Error is a structured wire error: a stable machine-readable code plus
// the human-readable message. Every error body is {"error": {...}}.
// RetryAfterMS, present on admission rejections (429/503), is the
// server's backoff hint — the millisecond twin of the Retry-After
// header, derived from queue depth and observed job latency.
type Error struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// RetryAfterError decorates a rejection with the server's backoff hint.
// errors.Is/As see through it, so classification is unchanged; writeError
// surfaces the hint as the Retry-After header and the retry_after_ms
// body field.
type RetryAfterError struct {
	Err   error
	After time.Duration
}

func (e *RetryAfterError) Error() string { return e.Err.Error() }
func (e *RetryAfterError) Unwrap() error { return e.Err }

// IsTransient classifies an error as worth retrying under the shared
// backoff policy: admission rejections (the queue drains) and internal
// failures (a panicked build has been unpublished from the cache; the
// retry builds fresh) are transient, while semantic failures, deadline
// and cancellation, and deliberately injected faults are permanent.
// This is the transient-vs-permanent axis of the wire taxonomy — the
// sweep runner and remote clients back off on exactly these.
func IsTransient(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return false
	case errors.Is(err, fault.ErrInjected):
		// Default injections interrupt deterministically; a chaos
		// schedule that wants retried faults injects a transient
		// sentinel (err=queue_full, err=internal) instead.
		return false
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQueueBusy):
		return true
	case errors.Is(err, errInternal):
		return true
	default:
		return false
	}
}

// ErrorBody is the envelope of every error response.
type ErrorBody struct {
	Error Error `json:"error"`
}

// ErrorCode maps an error to its stable wire code and HTTP status,
// classifying the typed sentinels of the analysis flow, the context
// errors of per-request deadlines, and the queue's admission errors.
func ErrorCode(err error) (code string, status int) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline_exceeded", http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return "canceled", 499 // client closed request (nginx convention)
	case errors.Is(err, ErrQueueFull):
		return "queue_full", http.StatusTooManyRequests
	case errors.Is(err, ErrQueueBusy):
		return "queue_busy", http.StatusTooManyRequests
	case errors.Is(err, ErrQueueClosed):
		return "shutting_down", http.StatusServiceUnavailable
	case errors.Is(err, errUnknownModel):
		return "unknown_model", http.StatusNotFound
	case errors.Is(err, errUnknownSweep):
		return "unknown_sweep", http.StatusNotFound
	case errors.Is(err, errSweepRunning):
		return "sweep_running", http.StatusConflict
	case errors.Is(err, fault.ErrInjected):
		return "fault_injected", http.StatusInternalServerError
	case errors.Is(err, multival.ErrNoConvergence):
		return "no_convergence", http.StatusUnprocessableEntity
	case errors.Is(err, multival.ErrNondeterministic):
		return "nondeterministic", http.StatusUnprocessableEntity
	case errors.Is(err, multival.ErrStateBound):
		return "state_bound", http.StatusUnprocessableEntity
	case errors.Is(err, multival.ErrNotIrreducible):
		return "not_irreducible", http.StatusUnprocessableEntity
	case errors.Is(err, multival.ErrZeno):
		return "zeno", http.StatusUnprocessableEntity
	case errors.Is(err, multival.ErrNestingDepth):
		return "nesting_depth", http.StatusBadRequest
	case errors.Is(err, errBadRequest):
		return "bad_request", http.StatusBadRequest
	default:
		// Includes errInternal: failures of the service itself surface
		// as a structured 500.
		return "internal", http.StatusInternalServerError
	}
}

// errInternal tags failures of the service itself — a panicking artifact
// build or queued job — surfaced to the waiting request as a structured
// 500 instead of a hung connection or a dead server.
var errInternal = errors.New("internal error")

// internalf wraps a server-side failure with errInternal.
func internalf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errInternal}, args...)...)
}

// errBadRequest tags request-shape errors (malformed JSON, missing
// fields, unparsable models) so ErrorCode maps them to 400.
var errBadRequest = errors.New("bad request")

// badRequestf wraps a request-shape error with errBadRequest.
func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errBadRequest}, args...)...)
}

// errUnknownModel reports a model_hash that names no stored model.
var errUnknownModel = errors.New("model hash not found; upload via /v1/models or send the model inline")

// errUnknownSweep reports a resume/status ID that names no tracked sweep
// (never started, or evicted from the bounded sweep history).
var errUnknownSweep = errors.New("sweep id not found (expired from history or never started)")

// errSweepRunning reports a resume of a sweep that is still executing.
var errSweepRunning = errors.New("sweep is still running")

// errTrailingData reports extra content after a request's JSON body.
var errTrailingData = errors.New("trailing data after JSON body")

// EncodeJSON writes v as indented JSON followed by a newline: the one
// serializer of both the HTTP service and the CLI -json mode, so outputs
// are byte-comparable across transports.
func EncodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// EncodeJSONCompact writes v as single-line JSON (SSE data: lines must
// not contain raw newlines).
func EncodeJSONCompact(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// DecodeJSON parses one JSON value from r into v, rejecting trailing
// garbage.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errTrailingData
	}
	return nil
}

// specHash returns the content digest of a request-derived spec: the
// SHA-256 of its canonical JSON encoding (struct field order is fixed, so
// encoding/json is canonical here). It keys derived artifacts in the
// cache.
func specHash(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Specs are plain structs of strings and numbers; Marshal cannot
		// fail on them.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
