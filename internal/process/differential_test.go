package process

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

// sameAsReference generates sys with both generators and reports any
// difference in .aut bytes, hash or error.
func sameAsReference(t *testing.T, sys *System) {
	t.Helper()
	got, err := sys.generateTerms(context.Background(), GenOptions{MaxStates: 50000})
	want, werr := generateByString(context.Background(), sys, GenOptions{MaxStates: 50000})
	if msg := compareGenerations(got, err, want, werr); msg != "" {
		t.Errorf("%s: %s", sys.Root, msg)
	}
}

// Two terms that print alike are one state, even when they differ in
// structure: Neg{Int(1)} and Int(-1) both print "-1".
func TestPrintCollisionIsOneState(t *testing.T) {
	if (Neg{Int(1)}).String() != Int(-1).String() {
		t.Fatal("the collision this test pins is gone")
	}
	sys := NewSystem("collision")
	sys.Define("P", []string{"n"}, Act("b", []Offer{Send(V("n"))}, Stop{}))
	sys.SetRoot(Alt(
		Do("a", Act("b", []Offer{Send(Neg{Int(1)})}, Stop{})),
		Do("a", Act("b", []Offer{Send(Int(-1))}, Stop{})),
		Do("c", Call{"P", []Expr{Neg{Int(1)}}}),
		Do("c", Call{"P", []Expr{Int(-1)}}),
		Do("d", Guard{Eq(Neg{Int(1)}, Int(-1)), Stop{}}),
		Do("d", Guard{Eq(Int(-1), Int(-1)), Stop{}}),
	))
	l, err := sys.generateTerms(context.Background(), GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// initial, "b !-1; stop", stop, P(-1), "[(-1 == -1)] -> stop".
	if l.NumStates() != 5 || l.NumTransitions() != 8 {
		t.Errorf("%d states, %d transitions; want 5 and 8", l.NumStates(), l.NumTransitions())
	}
	sameAsReference(t, sys)
}

// Interned terms print as the terms they were built from.
func TestInternRoundTrip(t *testing.T) {
	tt := newTerms()
	for _, b := range []Behavior{
		Stop{}, Exit{}, Exit{[]Expr{Add(V("x"), Int(1))}},
		Act("g", []Offer{Recv("x", 0, 2), Send(V("x")), RecvBool("y")}, Call{"P", []Expr{V("x")}}),
		Guard{Lt(V("x"), Int(3)), Choice{Stop{}, Exit{}}},
		SyncPar([]string{"b", "a"}, Stop{}, Do("a", Stop{})),
		HideIn([]string{"a"}, Rename{map[string]string{"b": "c", "a": "d"}, Stop{}}),
		Seq{Exit{[]Expr{Int(1)}}, []string{"v"}, Disable{Stop{}, Let{"w", V("v"), Stop{}}}},
	} {
		id, err := tt.intern(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := tt.behavior(id).String(); got != b.String() {
			t.Errorf("round trip: %s, want %s", got, b)
		}
		if again, _ := tt.intern(b); again != id {
			t.Errorf("%s interned twice as %d and %d", b, id, again)
		}
	}
}

func TestQuickSameAsReference(t *testing.T) {
	prop := func(p, q randBehavior) bool {
		for _, b := range []Behavior{p.B, Choice{p.B, q.B}, SyncPar([]string{"a", "b"}, p.B, q.B),
			HideIn([]string{"b"}, Par{A: p.B, B: q.B}), Seq{p.B, nil, q.B}, Disable{p.B, q.B}} {
			sys := NewSystem("quick").SetRoot(b)
			got, err := sys.generateTerms(context.Background(), GenOptions{MaxStates: 50000})
			want, werr := generateByString(context.Background(), sys, GenOptions{MaxStates: 50000})
			if msg := compareGenerations(got, err, want, werr); msg != "" {
				t.Logf("%s: %s", b, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}
