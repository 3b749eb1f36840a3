package rmwtso_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cpp11"
	"repro/pkg/rmwtso"
)

// update regenerates the golden files instead of diffing against them:
//
//	go test ./pkg/rmwtso -run TestGoldenVerdicts -update
var update = flag.Bool("update", false, "rewrite the golden verdict file instead of diffing")

// goldenVerdicts renders the current verdict of every registered litmus
// test and every registered C/C++11 program × Table 4 mapping, under each
// RMW atomicity type, as a stable tab-separated table. "allowed" means
// the test's final condition holds over the valid executions; "sound"
// means every TSO outcome of the compiled program is a consistent C/C++11
// outcome ("racy" marks programs whose data race makes any mapping
// vacuously sound).
func goldenVerdicts(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("# Golden verdicts for the litmus and C/C++11 registries.\n")
	b.WriteString("# Regenerate with: go test ./pkg/rmwtso -run TestGoldenVerdicts -update\n")
	b.WriteString("# A diff here means a memory-model change flipped a verdict; bless it only on purpose.\n")
	for _, tst := range rmwtso.Suite().Tests() {
		for _, typ := range rmwtso.AllTypes() {
			r, err := tst.Run(typ)
			if err != nil {
				t.Fatalf("%s under %s: %v", tst.Name, typ, err)
			}
			verdict := "forbidden"
			if r.Holds {
				verdict = "allowed"
			}
			fmt.Fprintf(&b, "litmus\t%s\t%s\t%s\n", tst.Name, typ, verdict)
		}
	}
	for _, p := range cpp11.AllPrograms() {
		for _, m := range rmwtso.AllMappings() {
			for _, typ := range rmwtso.AllTypes() {
				r, err := rmwtso.ValidateMapping(p, m, typ)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", p.Name, m, typ, err)
				}
				verdict := "unsound"
				if r.Sound {
					verdict = "sound"
				}
				if r.Racy {
					verdict += " (racy)"
				}
				fmt.Fprintf(&b, "cpp11\t%s\t%s\t%s\t%s\n", p.Name, m, typ, verdict)
			}
		}
	}
	return b.String()
}

// TestGoldenVerdicts regenerates every registry verdict and diffs it
// against testdata/verdicts.golden, so future model edits cannot silently
// flip an allowed/forbidden or sound/unsound verdict. Run with -update to
// bless an intentional change.
func TestGoldenVerdicts(t *testing.T) {
	got := goldenVerdicts(t)
	path := filepath.Join("testdata", "verdicts.golden")
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
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(want, "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("verdicts drifted from %s at line %d:\n got: %s\nwant: %s\n(bless intentional changes with -update)",
				path, i+1, g, w)
		}
	}
	t.Fatalf("verdicts drifted from %s (line lengths equal but content differs)", path)
}
