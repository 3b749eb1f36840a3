package cpp11

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/memmodel"
)

// genCoherenceProgram draws a program of 2-3 threads holding 2-6
// statements in all, at least one each, over 1-3 locations. Each location
// is atomic (every access to it SC) with probability 2/3 and plain
// otherwise; loads target registers unique within their thread; stores
// write 1 or 2; now and then a location starts at a non-zero value.
func genCoherenceProgram(rng *rand.Rand, name string) *Program {
	p := NewProgram(name)
	locs := 1 + rng.Intn(3)
	atomic := make([]bool, locs)
	for l := range atomic {
		atomic[l] = rng.Intn(3) != 0
		if rng.Intn(4) == 0 {
			p.SetInit(memmodel.Addr(l), memmodel.Value(1+rng.Intn(3)))
		}
	}
	threads := 2 + rng.Intn(2)
	sizes := make([]int, threads)
	for i := range sizes {
		sizes[i] = 1
	}
	for extra := rng.Intn(7 - threads); extra > 0; extra-- {
		sizes[rng.Intn(threads)]++
	}
	for _, n := range sizes {
		var stmts []Stmt
		for si := 0; si < n; si++ {
			l := rng.Intn(locs)
			s := Stmt{Kind: OpStore, Addr: memmodel.Addr(l), Value: memmodel.Value(1 + rng.Intn(2))}
			if rng.Intn(2) == 0 {
				s = Stmt{Kind: OpLoad, Addr: memmodel.Addr(l), Reg: fmt.Sprintf("r%d", si)}
			}
			if atomic[l] {
				s.Order = OrderSC
			}
			stmts = append(stmts, s)
		}
		p.AddThread(stmts...)
	}
	return p
}

// coherenceViolation is the test's coherence oracle: it returns the
// first CoWW, CoWR, CoRW or CoRR shape that candidate x breaks at an
// atomic location, or "" when it breaks none, and counts in checked the
// happens-before-ordered pairs of each shape it looked at.
func coherenceViolation(c *checker, x *memmodel.Execution, hb *memmodel.Relation, checked map[string]int) string {
	mo := x.WSRel()
	for _, a := range x.Events {
		for _, b := range x.Events {
			if a.Index == b.Index || a.Addr != b.Addr || !c.atomic[a.Addr] || !hb.Has(a.Index, b.Index) {
				continue
			}
			switch {
			case a.IsWrite() && b.IsWrite():
				// CoWW: hb must agree with mo.
				checked["CoWW"]++
				if mo.Has(b.Index, a.Index) {
					return "CoWW"
				}
			case a.IsWrite() && b.IsRead():
				// CoWR: b must not read from a store mo-before a.
				checked["CoWR"]++
				if src, _ := x.ReadsFrom(b.Index); mo.Has(src, a.Index) {
					return "CoWR"
				}
			case a.IsRead() && b.IsWrite():
				// CoRW: the store a reads from must be mo-before b.
				checked["CoRW"]++
				if src, _ := x.ReadsFrom(a.Index); mo.Has(b.Index, src) {
					return "CoRW"
				}
			default:
				// CoRR: the two reads must observe stores in mo order.
				checked["CoRR"]++
				sa, _ := x.ReadsFrom(a.Index)
				sb, _ := x.ReadsFrom(b.Index)
				if mo.Has(sb, sa) {
					return "CoRR"
				}
			}
		}
	}
	return ""
}

// coherencePrograms returns 500 programs of genCoherenceProgram, drawn
// from seed 1.
func coherencePrograms() []*Program {
	rng := rand.New(rand.NewSource(1))
	progs := make([]*Program, 500)
	for i := range progs {
		progs[i] = genCoherenceProgram(rng, fmt.Sprintf("coh-%d", i))
	}
	return progs
}

// TestCoherenceFollowsFromSCOrder checks the argument on consistent: on
// every candidate that consistent accepts, of the registry programs and
// 500 generated ones, no coherence shape is broken at an atomic
// location. Each shape must occur among the checked pairs, so that the
// oracle is not vacuous.
func TestCoherenceFollowsFromSCOrder(t *testing.T) {
	progs := append(AllPrograms(), coherencePrograms()...)
	checked := map[string]int{}
	candidates, consistent := 0, 0
	for _, p := range progs {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		c := &checker{p: p, atomic: p.AtomicLocations()}
		err := memmodel.EnumerateFunc(translate(p, p.Name, false, false), func(x *memmodel.Execution) bool {
			candidates++
			hb := c.happensBefore(x)
			if !c.consistent(x, hb) {
				return true
			}
			consistent++
			if shape := coherenceViolation(c, x, hb, checked); shape != "" {
				t.Fatalf("%s: a consistent candidate breaks %s:\n%s", p.Name, shape, p)
			}
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	for _, shape := range []string{"CoWW", "CoWR", "CoRW", "CoRR"} {
		if checked[shape] == 0 {
			t.Errorf("no consistent candidate has an hb-ordered %s pair", shape)
		}
	}
	t.Logf("%d programs, %d candidates, %d consistent; hb-ordered pairs checked: %v", len(progs), candidates, consistent, checked)
}
