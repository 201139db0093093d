package process

import "fmt"

// termKind discriminates the nodes of an interned behaviour term.
type termKind uint8

const (
	kStop termKind = iota
	kExit
	kPrefix
	kGuard
	kChoice
	kPar
	kHide
	kRename
	kSeq
	kDisable
	kLet
	kCall
)

// noTerm marks an absent child or payload.
const noTerm int32 = -1

// nodeKey identifies a node: its kind, its payload and its children.
// Children are node IDs, so equal keys mean equal terms.
type nodeKey struct {
	kind termKind
	pay  int32
	a, b int32
}

// substKey memoizes one substitution of a value for a variable in a node.
type substKey struct {
	id   int32
	name string
	v    Value
}

// terms is a hash-consing table of behaviour terms: every node gets a
// dense int32 ID keyed by (kind, payload ID, child IDs), and comparing
// terms is comparing IDs. A node's payload is the node itself with its
// children blanked to Stop, which keeps the gate and variable names,
// offers and expressions it carries. Payloads are interned by their
// printing, and the first one seen stands for all that print alike:
// Neg{Int(1)} and Int(-1) both print "-1" and are one payload. Two terms
// therefore get one ID exactly when they print alike (for identifier
// gate, variable and process names), the relation that defines a state
// (see Generate). A table lives for one generation.
type terms struct {
	nodes  []nodeKey
	index  []int32 // open-addressing hash set of node IDs + 1 (0: empty)
	pays   []Behavior
	payIdx map[string]int32
	substs map[substKey]int32
}

func newTerms() *terms {
	return &terms{
		index:  make([]int32, 1024),
		payIdx: make(map[string]int32),
		substs: make(map[substKey]int32),
	}
}

// pay interns the payload of a node of the given kind: the node with
// its children blanked to Stop.
func (t *terms) pay(kind termKind, blank Behavior) int32 {
	key := string(rune('a'+kind)) + blank.String()
	if id, ok := t.payIdx[key]; ok {
		return id
	}
	id := int32(len(t.pays))
	t.pays = append(t.pays, blank)
	t.payIdx[key] = id
	return id
}

// mk interns the node (kind, pay, a, b) and returns its ID.
func (t *terms) mk(kind termKind, pay, a, b int32) int32 {
	k := nodeKey{kind, pay, a, b}
	slot := t.lookup(k)
	if id := t.index[slot]; id != 0 {
		return id - 1
	}
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, k)
	t.index[slot] = id + 1
	if 2*len(t.nodes) > len(t.index) {
		t.rehash()
	}
	return id
}

// lookup returns the index slot that holds k's node, or the empty slot
// where it belongs (linear probing; the table is at most half full).
func (t *terms) lookup(k nodeKey) int {
	mask := len(t.index) - 1
	for i := int(hashKey(k)) & mask; ; i = (i + 1) & mask {
		if id := t.index[i]; id == 0 || t.nodes[id-1] == k {
			return i
		}
	}
}

// rehash doubles the index and reinserts every node.
func (t *terms) rehash() {
	t.index = make([]int32, 2*len(t.index))
	for id, k := range t.nodes {
		t.index[t.lookup(k)] = int32(id) + 1
	}
}

func hashKey(k nodeKey) uint64 {
	h := uint64(uint32(k.a)) | uint64(uint32(k.b))<<32
	h ^= (uint64(uint32(k.pay))<<8 | uint64(k.kind)) * 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// intern converts a behaviour term into the table and returns its ID.
func (t *terms) intern(b Behavior) (int32, error) {
	var (
		kind  termKind
		blank Behavior
		kids  []Behavior
	)
	switch x := b.(type) {
	case Stop:
		kind = kStop
	case Exit:
		kind, blank = kExit, x
	case Prefix:
		kind, blank, kids = kPrefix, Prefix{x.Gate, x.Offers, Stop{}}, []Behavior{x.Cont}
	case Guard:
		kind, blank, kids = kGuard, Guard{x.Cond, Stop{}}, []Behavior{x.B}
	case Choice:
		kind, kids = kChoice, []Behavior{x.A, x.B}
	case Par:
		kind, blank, kids = kPar, Par{x.Sync, Stop{}, Stop{}}, []Behavior{x.A, x.B}
	case Hide:
		kind, blank, kids = kHide, Hide{x.Gates, Stop{}}, []Behavior{x.B}
	case Rename:
		kind, blank, kids = kRename, Rename{x.Map, Stop{}}, []Behavior{x.B}
	case Seq:
		kind, blank, kids = kSeq, Seq{Stop{}, x.Accept, Stop{}}, []Behavior{x.A, x.B}
	case Disable:
		kind, kids = kDisable, []Behavior{x.A, x.B}
	case Let:
		kind, blank, kids = kLet, Let{x.Var, x.E, Stop{}}, []Behavior{x.B}
	case Call:
		kind, blank = kCall, x
	default:
		return noTerm, fmt.Errorf("process: unknown behaviour %T", b)
	}
	pay := noTerm
	if blank != nil {
		pay = t.pay(kind, blank)
	}
	ids := [2]int32{noTerm, noTerm}
	for i, c := range kids {
		id, err := t.intern(c)
		if err != nil {
			return noTerm, err
		}
		ids[i] = id
	}
	return t.mk(kind, pay, ids[0], ids[1]), nil
}

// payload returns the payload of node n, or nil if it has none.
func (t *terms) payload(n nodeKey) Behavior {
	if n.pay == noTerm {
		return nil
	}
	return t.pays[n.pay]
}

// behavior rebuilds the term of a node, for error messages and tests.
func (t *terms) behavior(id int32) Behavior {
	n := t.nodes[id]
	switch x := t.payload(n).(type) {
	case Prefix:
		x.Cont = t.behavior(n.a)
		return x
	case Guard:
		x.B = t.behavior(n.a)
		return x
	case Par:
		x.A, x.B = t.behavior(n.a), t.behavior(n.b)
		return x
	case Hide:
		x.B = t.behavior(n.a)
		return x
	case Rename:
		x.B = t.behavior(n.a)
		return x
	case Seq:
		x.A, x.B = t.behavior(n.a), t.behavior(n.b)
		return x
	case Let:
		x.B = t.behavior(n.a)
		return x
	case Exit, Call:
		return x
	}
	switch n.kind {
	case kChoice:
		return Choice{t.behavior(n.a), t.behavior(n.b)}
	case kDisable:
		return Disable{t.behavior(n.a), t.behavior(n.b)}
	default:
		return Stop{}
	}
}

// subst replaces the free occurrences of name by v in node id. The
// result is interned, so a node in which name does not occur free comes
// back as itself; it is computed once per (node, variable, value).
func (t *terms) subst(id int32, name string, v Value) int32 {
	n := t.nodes[id]
	if n.kind == kStop {
		return id
	}
	key := substKey{id, name, v}
	if r, ok := t.substs[key]; ok {
		return r
	}
	var r int32
	switch x := t.payload(n).(type) {
	case Exit:
		r = t.mk(kExit, t.pay(kExit, Exit{substExprs(x.Results, name, v)}), noTerm, noTerm)
	case Prefix:
		offers, shadowed := substOffers(x.Offers, name, v)
		cont := n.a
		if !shadowed {
			cont = t.subst(cont, name, v)
		}
		r = t.mk(kPrefix, t.pay(kPrefix, Prefix{x.Gate, offers, Stop{}}), cont, noTerm)
	case Guard:
		r = t.mk(kGuard, t.pay(kGuard, Guard{x.Cond.substExpr(name, v), Stop{}}), t.subst(n.a, name, v), noTerm)
	case Seq:
		b := n.b
		// Accept variables shadow the substitution in B.
		if !containsString(x.Accept, name) {
			b = t.subst(b, name, v)
		}
		r = t.mk(kSeq, n.pay, t.subst(n.a, name, v), b)
	case Let:
		b := n.a
		if x.Var != name { // let shadows
			b = t.subst(b, name, v)
		}
		r = t.mk(kLet, t.pay(kLet, Let{x.Var, x.E.substExpr(name, v), Stop{}}), b, noTerm)
	case Call:
		r = t.mk(kCall, t.pay(kCall, Call{x.Proc, substExprs(x.Args, name, v)}), noTerm, noTerm)
	default: // Choice, Par, Disable, Hide, Rename
		a, b := t.subst(n.a, name, v), n.b
		if b != noTerm {
			b = t.subst(b, name, v)
		}
		r = t.mk(n.kind, n.pay, a, b)
	}
	t.substs[key] = r
	return r
}

func substExprs(es []Expr, name string, v Value) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = e.substExpr(name, v)
	}
	return out
}

// substOffers substitutes v for name in the emissions of an offer list,
// up to the first acceptance that rebinds name; shadowed reports whether
// one did, in which case the continuation keeps the new binding.
func substOffers(offers []Offer, name string, v Value) (out []Offer, shadowed bool) {
	out = make([]Offer, len(offers))
	for i, o := range offers {
		if shadowed {
			out[i] = o
			continue
		}
		if o.Emit != nil {
			out[i] = Offer{Emit: o.Emit.substExpr(name, v)}
			continue
		}
		out[i] = o
		if o.Var == name {
			// Later offers and the continuation see the new binding.
			shadowed = true
		}
	}
	return out, shadowed
}

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
