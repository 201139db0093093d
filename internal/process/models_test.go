package process_test

import (
	"fmt"
	"testing"

	"multival/internal/chp"
	"multival/internal/fame"
	"multival/internal/faust"
	"multival/internal/lotos"
	"multival/internal/lts"
	"multival/internal/process"
	"multival/internal/sweep"
)

// The tests below build models the way the rest of the flow does; inside
// this test binary every generation also runs the string-keyed reference
// (see TestMain), and checkReference asserts that build generated at
// least once and matched the reference byte for byte.

func checkReference(t *testing.T, name string, build func() (*lts.LTS, error)) {
	t.Helper()
	before := process.Compared()
	if _, err := build(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if process.Compared() == before {
		t.Fatalf("%s: nothing was generated", name)
	}
	for _, m := range process.TakeMismatches() {
		t.Errorf("%s: %s", name, m)
	}
}

// routerConfigs lists every router configuration the faust-router
// benchmark pins (ports 2-4, every input subset, with and without
// handshake expansion, except the ports-4 all-input routers and the
// ports-4 handshake routers with more than one input), then E2's five.
func routerConfigs(short bool) []struct {
	ports  int
	inputs []int
	hs     bool
} {
	type cfg = struct {
		ports  int
		inputs []int
		hs     bool
	}
	var out []cfg
	for ports := 2; ports <= 4; ports++ {
		for mask := 1; mask < 1<<ports; mask++ {
			var ins []int
			for i := 0; i < ports; i++ {
				if mask&(1<<i) != 0 {
					ins = append(ins, i)
				}
			}
			if len(ins) > 2 && !(ports == 3 && len(ins) == 3) {
				continue
			}
			for _, hs := range []bool{false, true} {
				if hs && (len(ins) == 3 || ports == 4 && len(ins) == 2) {
					continue
				}
				out = append(out, cfg{ports, ins, hs})
			}
		}
	}
	out = append(out, cfg{2, nil, false}, cfg{3, nil, false}, cfg{3, []int{0, 1}, false}, cfg{4, []int{0, 1}, false})
	if !short {
		// E2's 65,329-state handshake router.
		out = append(out, cfg{3, nil, true})
	}
	return out
}

func TestReferenceFaustRouter(t *testing.T) {
	cfgs := routerConfigs(testing.Short())
	if n := len(cfgs); n != 37 && n != 38 {
		t.Fatalf("%d router configurations, want the 33 pinned plus E2's", n)
	}
	for _, c := range cfgs {
		name := fmt.Sprintf("p%d-i%v-hs%v", c.ports, c.inputs, c.hs)
		checkReference(t, name, func() (*lts.LTS, error) {
			return faust.RouterLTS(faust.RouterConfig{Ports: c.ports, InputsActive: c.inputs},
				chp.Options{HandshakeExpand: c.hs}, 1<<20)
		})
	}
}

func TestReferenceFork(t *testing.T) {
	for values := 1; values <= 3; values++ {
		checkReference(t, fmt.Sprintf("spec-%d", values), func() (*lts.LTS, error) {
			return faust.ForkSpec(values)
		})
		for _, v := range []faust.ForkVariant{faust.ForkWaitBoth, faust.ForkIsochronic, faust.ForkUnsafe} {
			checkReference(t, fmt.Sprintf("%v-%d", v, values), func() (*lts.LTS, error) {
				return faust.ForkImpl(values, v)
			})
		}
	}
}

func TestReferenceMPIFunctional(t *testing.T) {
	for values := 1; values <= 3; values++ {
		checkReference(t, fmt.Sprintf("mpifunc-%d", values), func() (*lts.LTS, error) {
			return fame.MPIFunctionalModel(values)
		})
	}
}

func TestReferenceSweepLotosFamily(t *testing.T) {
	fam, ok := sweep.Lookup("lotos")
	if !ok {
		t.Fatal("no lotos family")
	}
	fixed := map[string]any{"src": "process P := a; P endproc behaviour P", "rate_a": 2.0}
	pts, err := sweep.Expand(fam, fixed, map[string][]any{"at": {0.0}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := fam.Build(pts[0].Values)
	if err != nil {
		t.Fatal(err)
	}
	checkReference(t, "lotos-family", inst.Components[0].Build)
}

// lotosFixtures are the specifications the lotos package's tests
// generate.
var lotosFixtures = []string{
	"a; b; stop",
	"g ?x:0..2 ; [x > 0] -> h !(x*10) ; stop",
	"(a; stop [] b; stop) ||| c; stop",
	"g !1 ; stop |[g]| g ?x:0..3 ; h !x ; stop",
	`hide g in rename h -> z in let n := 2+3 in g; h !n; stop`,
	"(g ?x:1..2 ; exit(x+10)) >> accept y in h !y ; stop",
	`process Count(n) :=
	    [n > 0] -> dec; Count(n - 1)
	 [] [n == 0] -> zero; stop
	endproc
	behaviour Count(2)`,
	`process Buf := put ?x:0..1 ; get !x ; Buf endproc behaviour Buf`,
	`process Buf1 := put ?x:0..1 ; mid !x ; Buf1 endproc
	process Buf2 := mid ?x:0..1 ; get !x ; Buf2 endproc
	behaviour hide mid in (Buf1 |[mid]| Buf2)`,
	"-- line comment\n(* block (* nested *) comment *)\na; stop -- trailing",
	"specification demo behaviour a; stop",
	"[2 + 3 * 4 == 14] -> a; stop",
	"[not (1 == 2) and true or false] -> a; stop",
	"[(if 1 < 2 then 7 else 8) == 7] -> a; stop",
	"g !(if 1 < 2 then 7 else 8) ; stop",
	"g ?x:-1..1 ; stop",
	"g ?b:bool ; [b] -> h; stop",
	"(load; send; stop) [> abort; stop",
	"(a; exit) [> k; stop >> c; stop",
}

func TestReferenceLotosFixtures(t *testing.T) {
	for i, src := range lotosFixtures {
		sys, err := lotos.Parse(src)
		if err != nil {
			t.Fatalf("fixture %d: %v", i, err)
		}
		checkReference(t, fmt.Sprintf("fixture %d", i), func() (*lts.LTS, error) {
			return sys.Generate(process.GenOptions{MaxStates: 100000})
		})
	}
}
