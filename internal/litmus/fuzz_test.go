package litmus

import (
	"strings"
	"testing"

	"repro/internal/memmodel/memmodeltest"
)

// FuzzParse feeds arbitrary text to the litmus parser. The parser must
// never panic; when it accepts an input, the parsed test must survive the
// format cycle: Format output re-parses, and re-formatting the re-parse
// reproduces the text byte for byte (Format renames locations
// canonically, which makes its output a fixed point of parse→format).
//
// The seed corpus is every registered test rendered through Format, plus
// hand-written sources covering each syntactic form and the error paths.
func FuzzParse(f *testing.F) {
	for _, t := range AllTests() {
		f.Add(Format(t))
	}
	seeds := []string{
		sampleSource,
		"name: t\nthread P0:\n  r0 = load x\nexists (P0:r0=0)\n",
		"name: t\ninit: x=1 y=-2\nthread P0:\n  store x, 3\n  mfence\n  r0 = xadd y, 0\nforall (x=3)\n",
		"name: t\nthread P0:\n  r0 = tas l\n~exists (P0:r0=1 /\\ l=1)\n",
		"name: t\ndoc: d\nthread P0:\n  r0 = xchg x, 5\nexists (x=5)\n",
		"# only a comment",
		"name: missing-everything",
		"thread P0:\n  store x, 1\n",
		"name: t\nthread P1:\n  r0 = load x\nexists (P1:r0=0)\n",
		"name: t\nthread P0:\n  frobnicate x\nexists (x=0)\n",
		"name: t\ninit: w=5\nthread P0:\n  store q, 1\nexists (q=1)\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		test, err := Parse(src)
		if err != nil {
			return // rejected inputs just must not panic
		}
		first := Format(test)
		reparsed, err := Parse(first)
		if err != nil {
			t.Fatalf("Format output does not re-parse: %v\ninput:\n%s\nformatted:\n%s", err, src, first)
		}
		second := Format(reparsed)
		if first != second {
			t.Fatalf("parse→format round trip is not stable:\ninput:\n%s\nfirst:\n%s\nsecond:\n%s", src, first, second)
		}
		if reparsed.Name != test.Name {
			t.Fatalf("round trip changed the test name: %q -> %q", test.Name, reparsed.Name)
		}
		if len(reparsed.Program.Threads) != len(test.Program.Threads) {
			t.Fatalf("round trip changed the thread count: %d -> %d",
				len(test.Program.Threads), len(reparsed.Program.Threads))
		}
		for ti := range test.Program.Threads {
			if len(reparsed.Program.Threads[ti]) != len(test.Program.Threads[ti]) {
				t.Fatalf("round trip changed thread %d's instruction count", ti)
			}
		}
		if len(reparsed.Cond.Terms) != len(test.Cond.Terms) ||
			reparsed.Cond.Quantifier != test.Cond.Quantifier {
			t.Fatalf("round trip changed the condition: %v -> %v", test.Cond, reparsed.Cond)
		}
	})
}

// TestFormatIsParseFixedPoint pins the fixed-point property without
// fuzzing, so a plain `go test` also covers it: on the registry — in
// particular on programs whose locations are not numbered in appearance
// order, which Format canonicalizes — and on 400 generated programs of
// two seeds, each wrapped with an exists condition as the generated
// verdict benchmark wraps them. A failure is a Format or Parse bug.
func TestFormatIsParseFixedPoint(t *testing.T) {
	tests := AllTests()
	for _, seed := range []int64{23, 7} {
		for _, p := range memmodeltest.Programs(seed, 200, 20_000) {
			tests = append(tests, &Test{Name: p.Name, Program: p, Cond: ExistsCond(MemTerm(p.Addrs()[0], 1))})
		}
	}
	for _, tst := range tests {
		first := Format(tst)
		reparsed, err := Parse(first)
		if err != nil {
			t.Fatalf("%s: Format output does not re-parse: %v\n%s", tst.Name, err, first)
		}
		second := Format(reparsed)
		if first != second {
			t.Fatalf("%s: parse→format not stable:\n--- first\n%s\n--- second\n%s", tst.Name, first, second)
		}
		if !strings.Contains(first, "name: ") {
			t.Fatalf("%s: formatted test lost its name line:\n%s", tst.Name, first)
		}
	}
}
