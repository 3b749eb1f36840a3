package main

import (
	"strings"
	"testing"

	"repro/pkg/rmwtso"
)

func TestGenerateLitmusIsDeterministic(t *testing.T) {
	a, err := generateLitmus(42, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateLitmus(42, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("program %d differs between two runs of seed 42:\n%s\n%s", i, a[i], b[i])
		}
	}
	c, err := generateLitmus(43, 16)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(a, "") == strings.Join(c, "") {
		t.Error("seeds 42 and 43 generated the same programs")
	}
}

// TestGeneratedProgramsRoundTrip checks every generated source against the
// generator's contract: it parses, Format∘Parse is a fixed point, the
// shape limits hold, and the candidate count lies in the program's band.
func TestGeneratedProgramsRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 20130601} {
		srcs, err := generateLitmus(seed, 2*sizeBands)
		if err != nil {
			t.Fatal(err)
		}
		for i, src := range srcs {
			test, err := rmwtso.ParseTest(src)
			if err != nil {
				t.Fatalf("seed %d program %d does not parse: %v\n%s", seed, i, err, src)
			}
			once := rmwtso.FormatTest(test)
			again, err := rmwtso.ParseTest(once)
			if err != nil {
				t.Fatalf("formatted program does not parse: %v\n%s", err, once)
			}
			if twice := rmwtso.FormatTest(again); twice != once {
				t.Errorf("Format(Parse(Format(Parse(src)))) differs from Format(Parse(src)):\n%s\n%s", once, twice)
			}
			if n := len(test.Program.Threads); n < 2 || n > 4 {
				t.Errorf("%s has %d threads", test.Name, n)
			}
			for ti, th := range test.Program.Threads {
				if len(th) > 4 {
					t.Errorf("%s thread %d has %d instructions", test.Name, ti, len(th))
				}
			}
			if !strings.Contains(src, "\nexists (") {
				t.Errorf("%s has no exists condition", test.Name)
			}
			n, err := rmwtso.CountCandidates(test.Program)
			if err != nil {
				t.Fatal(err)
			}
			if lo, hi := sizeBand(i % sizeBands); n < lo || n >= hi {
				t.Errorf("%s: %d candidates, band [%d, %d)", test.Name, n, lo, hi)
			}
			if m, _ := rmwtso.CountCandidates(again.Program); m != n {
				t.Errorf("%s: %d candidates after the round trip, %d before", test.Name, m, n)
			}
		}
	}
}

func TestSizeBandsCoverTheRange(t *testing.T) {
	lo, _ := sizeBand(0)
	_, hi := sizeBand(sizeBands - 1)
	if lo != minCandidates || hi != maxCandidates+1 {
		t.Errorf("bands cover [%d, %d), want [%d, %d]", lo, hi, minCandidates, maxCandidates)
	}
	for b := 1; b < sizeBands; b++ {
		_, prevHi := sizeBand(b - 1)
		if lo, _ := sizeBand(b); lo != prevHi {
			t.Errorf("band %d starts at %d, band %d ends at %d", b, lo, b-1, prevHi)
		}
	}
}
