package cpp11

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/memmodel"
)

// update regenerates the semantics golden file instead of diffing:
//
//	go test ./internal/cpp11 -run TestSemanticsGolden -update
var update = flag.Bool("update", false, "rewrite the semantics golden file instead of diffing")

// Shape of the generated programs: small enough that the whole golden
// analyzes in well under a second, varied enough to exercise every
// consistency rule and the race check.
const (
	genSeed     = 7
	genPrograms = 400
)

// genProgram draws a program of 2-3 threads with 1-2 statements each over
// 1-2 locations. Each location is either atomic (every access to it is SC)
// or plain; loads target registers unique within their thread; stores
// write 1 or 2; now and then a location starts at a non-zero value.
func genProgram(rng *rand.Rand, name string) *Program {
	p := NewProgram(name)
	locs := 1 + rng.Intn(2)
	atomic := make([]bool, locs)
	for l := range atomic {
		atomic[l] = rng.Intn(2) == 0
		if rng.Intn(4) == 0 {
			p.SetInit(memmodel.Addr(l), memmodel.Value(1+rng.Intn(3)))
		}
	}
	threads := 2 + rng.Intn(2)
	for ti := 0; ti < threads; ti++ {
		var stmts []Stmt
		for si, n := 0, 1+rng.Intn(2); si < n; si++ {
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

// goldenPrograms returns the programs semantics.golden pins: the
// registry programs, then genPrograms generated ones from genSeed.
func goldenPrograms() []*Program {
	progs := AllPrograms()
	rng := rand.New(rand.NewSource(genSeed))
	for i := 0; i < genPrograms; i++ {
		progs = append(progs, genProgram(rng, fmt.Sprintf("gen-%d", i)))
	}
	return progs
}

// semanticsGolden renders the C/C++11 semantics of the registry programs
// and the generated ones: each program's rendering and initial values,
// then its race verdict, counts and sorted outcome keys.
func semanticsGolden(t *testing.T) string {
	t.Helper()
	progs := goldenPrograms()
	var b strings.Builder
	b.WriteString("# C/C++11 semantics of the registry programs and of generated ones.\n")
	b.WriteString("# Regenerate with: go test ./internal/cpp11 -run TestSemanticsGolden -update\n")
	for _, p := range progs {
		sem, err := Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		b.WriteString(p.String())
		var inits []string
		for a, v := range p.Init {
			inits = append(inits, fmt.Sprintf("  init %s = %d\n", memmodel.AddrName(a), int(v)))
		}
		sort.Strings(inits)
		b.WriteString(strings.Join(inits, ""))
		fmt.Fprintf(&b, "racy=%t consistent=%d candidates=%d\n", sem.Racy, sem.Consistent, sem.Candidates)
		for _, k := range sem.OutcomeKeys() {
			fmt.Fprintf(&b, "  outcome %s\n", k)
		}
	}
	return b.String()
}

// TestSemanticsGolden pins Analyze on the registry programs and 400
// generated ones to testdata/semantics.golden, so a change to the
// candidate enumeration or to a consistency rule cannot silently change a
// race verdict, a count or an outcome set.
func TestSemanticsGolden(t *testing.T) {
	got := semanticsGolden(t)
	path := filepath.Join("testdata", "semantics.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("semantics drifted from %s at line %d:\n got: %s\nwant: %s\n(bless intentional changes with -update)",
				path, i+1, g, w)
		}
	}
}
