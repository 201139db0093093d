// Package engine holds the cross-cutting plumbing shared by every
// long-running operation of the Multival flow: the progress-reporting
// callback threaded from the public facade down into state-space
// generation, partition refinement, lumping and the numerical solvers,
// and the typed sentinel errors that those layers wrap so callers can
// classify failures with errors.Is regardless of which layer produced
// them.
//
// The package sits below every other internal package (it imports only
// the standard library), so any layer may report progress or wrap a
// sentinel without introducing an import cycle.
package engine

import (
	"context"
	"errors"
)

// Sentinel errors classifying the failure modes of the flow. Concrete
// error types in the internal packages (process.ExplosionError,
// compose.ExplosionError, imc.NondeterminismError, imc.ZenoError,
// markov.ConvergenceError, ...) unwrap to one of these, so callers can
// test with errors.Is without depending on the concrete types.
var (
	// ErrStateBound reports that a state-space generation (DSL
	// exploration or synchronized product) exceeded its state bound.
	ErrStateBound = errors.New("state bound exceeded")
	// ErrNondeterministic reports that CTMC extraction hit a vanishing
	// state with several instantaneous alternatives and no scheduler.
	ErrNondeterministic = errors.New("unresolved nondeterminism")
	// ErrNotIrreducible reports that a Markov analysis required
	// reachability the chain does not have (e.g. a state that cannot
	// reach any target of a first-passage query, or an absorbing state
	// outside the targets).
	ErrNotIrreducible = errors.New("chain not irreducible for the requested analysis")
	// ErrNoConvergence reports that an iterative solver exhausted its
	// iteration budget.
	ErrNoConvergence = errors.New("iterative solver did not converge")
	// ErrZeno reports a cycle of instantaneous transitions (a tau
	// livelock), which has no timed semantics.
	ErrZeno = errors.New("instantaneous cycle (Zeno behaviour)")
	// ErrNestingDepth reports a specification or formula that nests
	// deeper than its parser's fixed bound (lotos.MaxNesting,
	// mcl.MaxNesting).
	ErrNestingDepth = errors.New("input nested too deeply")
)

// Progress is a snapshot of a long-running operation, delivered to the
// ProgressFunc installed through the facade options. Fields are filled
// as applicable to the stage; zero values mean "not meaningful here".
type Progress struct {
	// Stage names the operation: "generate", "compose", "refine",
	// "lump", "extract", "steady", "absorb", "transient", "fpt",
	// "bias".
	Stage string
	// States is the number of states explored or in play.
	States int
	// Transitions is the number of transitions built so far. Generation
	// stages fill it on their final report, which carries the exact
	// state and transition counts of the finished product (intermediate
	// reports may leave it zero).
	Transitions int
	// Done marks the final report of a stage: the counts above are the
	// exact totals of the finished operation, not an in-flight snapshot.
	// Observers that throttle intermediate reports must always deliver
	// Done ones.
	Done bool
	// Round is the refinement round or solver sweep number. For sharded
	// product generation it is the exchange round.
	Round int
	// Blocks is the current partition block count (refinement stages).
	Blocks int
	// Residual is the current convergence residual (solver stages).
	Residual float64
}

// ProgressFunc observes Progress snapshots. Implementations must be fast
// and must not retain the Progress value's future mutations (it is passed
// by value, so this is automatic). A nil ProgressFunc disables reporting.
type ProgressFunc func(Progress)

// Report invokes f with p when f is non-nil.
func (f ProgressFunc) Report(p Progress) {
	if f != nil {
		f(p)
	}
}

// Canceled returns ctx.Err() when the context is done, nil otherwise.
// Operations call it at round boundaries (worklist chunks, refinement
// rounds, solver sweeps) so cancellation is observed within one round.
// A nil context never cancels.
func Canceled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
