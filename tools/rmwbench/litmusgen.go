package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/pkg/rmwtso"
)

// Generated programs have between minCandidates and maxCandidates
// candidate executions: smaller ones cost less than the engine's per-job
// overhead, larger ones would let one program dominate a pass.
const (
	minCandidates = 1_000
	maxCandidates = 50_000
	// sizeBands splits that range into log-spaced bands, and program i is
	// drawn from band i mod sizeBands. Every seed then yields the same mix
	// of program sizes, so the per-program latency distribution moves
	// little with the seed.
	sizeBands = 8
	// maxDraws bounds the rejection sampling of one program.
	maxDraws = 100_000
)

// genLocations are the location names a generated program may use.
var genLocations = []string{"x", "y", "z"}

// generateLitmus returns n litmus sources derived from seed alone: 2-4
// threads of at most 4 instructions each (store, load, xchg, xadd, tas,
// mfence) over up to three locations, with an exists condition. Each
// program's candidate count lies in its size band of
// [minCandidates, maxCandidates].
func generateLitmus(seed int64, n int) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := sizeBand(i % sizeBands)
		src, err := drawLitmus(rng, fmt.Sprintf("gen-%d-%d", seed, i), lo, hi)
		if err != nil {
			return nil, err
		}
		out = append(out, src)
	}
	return out, nil
}

// sizeBand returns the candidate-count range [lo, hi) of band b.
func sizeBand(b int) (lo, hi int) {
	ratio := math.Pow(maxCandidates/minCandidates, 1/float64(sizeBands))
	lo = int(math.Round(minCandidates * math.Pow(ratio, float64(b))))
	hi = int(math.Round(minCandidates * math.Pow(ratio, float64(b+1))))
	if b == sizeBands-1 {
		hi = maxCandidates + 1
	}
	return lo, hi
}

// drawLitmus draws random programs until one has [lo, hi) candidates.
func drawLitmus(rng *rand.Rand, name string, lo, hi int) (string, error) {
	for draw := 0; draw < maxDraws; draw++ {
		src, bound := randomLitmus(rng, name)
		// CountCandidates walks every reads-from choice and builds every
		// write order, so a program far beyond the range must be skipped
		// before it is counted.
		if bound < float64(lo) || bound > 4*maxCandidates {
			continue
		}
		t, err := rmwtso.ParseTest(src)
		if err != nil {
			return "", fmt.Errorf("generated program does not parse: %w\n%s", err, src)
		}
		n, err := rmwtso.CountCandidates(t.Program)
		if errors.Is(err, rmwtso.ErrSpaceTooLarge) {
			continue
		}
		if err != nil {
			return "", err
		}
		if n >= lo && n < hi {
			return src, nil
		}
	}
	return "", fmt.Errorf("no program with %d to %d candidates in %d draws", lo, hi-1, maxDraws)
}

// randomLitmus emits one random program in the litmus text format, with
// an upper bound on its candidate count: every read may read from any
// write to its location or the initial value, and the writes to each
// location may come in any order.
func randomLitmus(rng *rand.Rand, name string) (string, float64) {
	var b strings.Builder
	fmt.Fprintf(&b, "name: %s\n", name)
	locs := genLocations[:1+rng.Intn(len(genLocations))]
	writes := map[string]int{}
	reads := map[string]int{}
	threads := 2 + rng.Intn(3)
	var regs []string // every register a load or RMW writes, as P<t>:<reg>
	for t := 0; t < threads; t++ {
		fmt.Fprintf(&b, "thread P%d:\n", t)
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			loc := locs[rng.Intn(len(locs))]
			reg := fmt.Sprintf("r%d", i)
			val := 1 + rng.Intn(2)
			// Plain accesses are drawn three times as often as each RMW
			// form and the fence. These weights are an unverified
			// assumption: no corpus of real litmus programs was measured.
			switch k := rng.Intn(10); {
			case k < 3:
				fmt.Fprintf(&b, "  store %s, %d\n", loc, val)
				writes[loc]++
				continue
			case k < 6:
				fmt.Fprintf(&b, "  %s = load %s\n", reg, loc)
				reads[loc]++
			case k == 6:
				fmt.Fprintf(&b, "  %s = xchg %s, %d\n", reg, loc, val)
				reads[loc]++
				writes[loc]++
			case k == 7:
				fmt.Fprintf(&b, "  %s = xadd %s, %d\n", reg, loc, val)
				reads[loc]++
				writes[loc]++
			case k == 8:
				fmt.Fprintf(&b, "  %s = tas %s\n", reg, loc)
				reads[loc]++
				writes[loc]++
			default:
				b.WriteString("  mfence\n")
				continue
			}
			regs = append(regs, fmt.Sprintf("P%d:%s", t, reg))
		}
	}
	bound := 1.0
	for _, loc := range locs {
		bound *= math.Pow(float64(writes[loc]+1), float64(reads[loc]))
		for i := 2; i <= writes[loc]; i++ {
			bound *= float64(i)
		}
	}
	terms := make([]string, 1+rng.Intn(3))
	for i := range terms {
		val := rng.Intn(3)
		if len(regs) > 0 && rng.Intn(4) > 0 {
			terms[i] = fmt.Sprintf("%s=%d", regs[rng.Intn(len(regs))], val)
		} else {
			terms[i] = fmt.Sprintf("%s=%d", locs[rng.Intn(len(locs))], val)
		}
	}
	fmt.Fprintf(&b, "exists (%s)\n", strings.Join(terms, " /\\ "))
	return b.String(), bound
}
