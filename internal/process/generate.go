package process

import (
	"context"
	"fmt"

	"multival/internal/engine"
	"multival/internal/lts"
)

// ProcDef is a named, parameterized process definition.
type ProcDef struct {
	Name   string
	Params []string
	Body   Behavior
}

// System is a collection of process definitions plus a root behaviour,
// corresponding to a LOTOS specification.
type System struct {
	Name string
	Defs map[string]*ProcDef
	Root Behavior
}

// NewSystem creates an empty system with the given name.
func NewSystem(name string) *System {
	return &System{Name: name, Defs: make(map[string]*ProcDef)}
}

// Define registers a process definition, replacing any previous definition
// with the same name, and returns the system for chaining.
func (s *System) Define(name string, params []string, body Behavior) *System {
	s.Defs[name] = &ProcDef{Name: name, Params: params, Body: body}
	return s
}

// SetRoot sets the root behaviour and returns the system for chaining.
func (s *System) SetRoot(b Behavior) *System {
	s.Root = b
	return s
}

// GenOptions configures state-space generation.
type GenOptions struct {
	// MaxStates bounds the exploration; 0 means DefaultMaxStates.
	// Exceeding the bound is an error (state-space explosion guard).
	MaxStates int
	// Progress, when non-nil, observes exploration milestones (stage
	// "generate", states explored so far).
	Progress engine.ProgressFunc
}

// DefaultMaxStates is the generation bound used when GenOptions.MaxStates
// is zero.
const DefaultMaxStates = 1 << 20

// ExplosionError reports that generation exceeded the state bound.
type ExplosionError struct {
	Bound int
}

func (e *ExplosionError) Error() string {
	return fmt.Sprintf("process: state space exceeds %d states", e.Bound)
}

// Unwrap classifies the error as the shared state-bound sentinel, so
// errors.Is(err, engine.ErrStateBound) holds.
func (e *ExplosionError) Unwrap() error { return engine.ErrStateBound }

// Generate explores the state space of the system's root behaviour and
// returns it as an LTS. Exploration is breadth-first over hash-consed
// terms: each state is the ID of its (closed) behaviour term in a table
// built for this call, two terms get one ID exactly when they print
// alike, and the steps of every component term are derived once and
// reused by every product state that contains it. State numbering is
// therefore deterministic. It is GenerateCtx without cancellation.
func (s *System) Generate(opts GenOptions) (*lts.LTS, error) {
	return s.GenerateCtx(context.Background(), opts)
}

// genCheckEvery is the number of worklist states between cancellation
// checks and progress reports during generation.
const genCheckEvery = 1024

// GenerateCtx is Generate with cancellation: the exploration worklist
// checks ctx every genCheckEvery states and returns ctx.Err() (wrapped)
// when the context is done, so a deadline or cancel aborts generation
// mid-worklist rather than after the fact.
func (s *System) GenerateCtx(ctx context.Context, opts GenOptions) (*lts.LTS, error) {
	return generate(s, ctx, opts)
}

// generate is the exploration GenerateCtx runs. It is a variable only so
// that this package's tests can check every generation in the test
// binary, including those of models built by other packages, against
// the string-keyed reference generator.
var generate = (*System).generateTerms

func (s *System) generateTerms(ctx context.Context, opts GenOptions) (*lts.LTS, error) {
	if s.Root == nil {
		return nil, fmt.Errorf("process: system %q has no root behaviour", s.Name)
	}
	bound := opts.MaxStates
	if bound == 0 {
		bound = DefaultMaxStates
	}

	g := newGenerator(s.Defs)
	root, err := g.t.intern(s.Root)
	if err != nil {
		return nil, err
	}

	var (
		queue   []int32  // term ID of each state, in state order
		stateOf []int32  // term ID -> state + 1 (0: not a state)
		labelOf []int32  // generator label -> LTS label + 1 (0: unused)
		labels  []string // LTS label table, in order of first use
		trans   transitions
	)
	// state returns the state of term id, numbering it on first sight.
	state := func(id int32) (lts.State, error) {
		if int(id) < len(stateOf) && stateOf[id] != 0 {
			return lts.State(stateOf[id] - 1), nil
		}
		if len(queue) >= bound {
			return 0, &ExplosionError{bound}
		}
		stateOf = extend(stateOf, len(g.t.nodes))
		stateOf[id] = int32(len(queue)) + 1
		queue = append(queue, id)
		return lts.State(len(queue) - 1), nil
	}
	// ltsLabel resolves a generator label to its LTS label ID on first use.
	ltsLabel := func(lab int32) int {
		labelOf = extend(labelOf, len(g.labels))
		if labelOf[lab] == 0 {
			labels = append(labels, g.labels[lab].text())
			labelOf[lab] = int32(len(labels))
		}
		return int(labelOf[lab] - 1)
	}

	if _, err := state(root); err != nil {
		return nil, err
	}

	var buf []step
	for qi := 0; qi < len(queue); qi++ {
		if qi%genCheckEvery == 0 {
			if err := engine.Canceled(ctx); err != nil {
				return nil, fmt.Errorf("process: generation canceled at %d states: %w", len(queue), err)
			}
			opts.Progress.Report(engine.Progress{Stage: "generate", States: len(queue)})
		}
		buf, err = g.derive(queue[qi], 0, buf[:0])
		if err != nil {
			return nil, fmt.Errorf("state %d: %w", qi, err)
		}
		for _, st := range buf {
			dst, err := state(st.next)
			if err != nil {
				return nil, err
			}
			trans.add(lts.Transition{Src: lts.State(qi), Label: ltsLabel(st.lab), Dst: dst})
		}
	}
	return lts.Build(s.Name, len(queue), 0, labels, trans.flat()), nil
}

// transitions collects a transition list in chunks of doubling size and
// copies it once into a list of the final size: appending to one slice
// would allocate several times the final list while it grows.
type transitions [][]lts.Transition

func (ts *transitions) add(t lts.Transition) {
	n := len(*ts)
	if n == 0 || len((*ts)[n-1]) == cap((*ts)[n-1]) {
		size := 256
		if n > 0 {
			size = min(2*cap((*ts)[n-1]), 1<<16)
		}
		*ts = append(*ts, make([]lts.Transition, 0, size))
		n++
	}
	(*ts)[n-1] = append((*ts)[n-1], t)
}

func (ts transitions) flat() []lts.Transition {
	total := 0
	for _, c := range ts {
		total += len(c)
	}
	out := make([]lts.Transition, 0, total)
	for _, c := range ts {
		out = append(out, c...)
	}
	return out
}

// MustGenerate is Generate that panics on error; for models known to be
// finite and well-typed (tests, examples).
func (s *System) MustGenerate(opts GenOptions) *lts.LTS {
	l, err := s.Generate(opts)
	if err != nil {
		panic(err)
	}
	return l
}

// Generate builds the LTS of a standalone behaviour with no process
// definitions.
func GenerateBehavior(name string, b Behavior, opts GenOptions) (*lts.LTS, error) {
	sys := NewSystem(name)
	sys.SetRoot(b)
	return sys.Generate(opts)
}
