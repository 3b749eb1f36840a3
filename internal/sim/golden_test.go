package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// update regenerates the results golden file instead of diffing:
//
//	go test ./internal/sim -run TestResultsGolden -update
var update = flag.Bool("update", false, "rewrite the results golden file instead of diffing")

// goldenSeed is the workload seed of the grid runs (the default plan's).
const goldenSeed = 20130601

// goldenConfigs enumerates the configurations every golden trace runs
// under: each RMW type with deadlock avoidance on and off and with the
// parallel forced drain on and off, each derived from base.
func goldenConfigs(base sim.Config) (names []string, cfgs []sim.Config) {
	for _, typ := range core.AllTypes() {
		for _, avoid := range []bool{true, false} {
			for _, pdrain := range []bool{true, false} {
				cfg := base.WithRMWType(typ)
				cfg.DisableDeadlockAvoidance = !avoid
				cfg.ParallelDrain = pdrain
				names = append(names, fmt.Sprintf("%s/avoid=%t/pdrain=%t", typ, avoid, pdrain))
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return names, cfgs
}

// goldenSources returns the nine traces of the default plan (the seven
// Table 3 profiles plus wsq-mst's read- and write-replacement variants)
// at the given core and iteration counts.
func goldenSources(t *testing.T, cores, iterations int) []sim.TraceSource {
	t.Helper()
	type spec struct {
		p       workload.Profile
		replace workload.Replacement
	}
	var specs []spec
	for _, p := range workload.Table3Profiles() {
		specs = append(specs, spec{p, workload.NoReplacement})
	}
	specs = append(specs,
		spec{workload.WSQProfile(), workload.ReadReplacement},
		spec{workload.WSQProfile(), workload.WriteReplacement})
	var out []sim.TraceSource
	for _, s := range specs {
		s.p.Iterations = iterations
		src, err := workload.Generator{Cores: cores, Seed: goldenSeed, Replacement: s.replace}.Source(s.p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, src)
	}
	return out
}

// randomTrace builds a small trace over at most three lines: two to four
// cores with up to eight operations each, drawn from every op kind.
func randomTrace(rng *rand.Rand, i int) *sim.Trace {
	lines := []uint64{0x10000, 0x20000, 0x30000}[:1+rng.Intn(3)]
	tr := sim.NewTrace(fmt.Sprintf("random-%d", i), 2+rng.Intn(3))
	for c := 0; c < len(tr.PerCore); c++ {
		for n := rng.Intn(9); n > 0; n-- {
			addr := lines[rng.Intn(len(lines))]
			switch rng.Intn(5) {
			case 0:
				tr.Append(c, sim.Read(addr))
			case 1:
				tr.Append(c, sim.Write(addr))
			case 2:
				tr.Append(c, sim.RMW(addr))
			case 3:
				tr.Append(c, sim.Fence())
			default:
				tr.Append(c, sim.Compute(uint64(1+rng.Intn(200))))
			}
		}
	}
	return tr
}

// simulate runs one source under one configuration and turns a panic
// into a test failure that names the run.
func simulate(t *testing.T, name string, cfg sim.Config, src sim.TraceSource) (res *sim.Result, err error) {
	t.Helper()
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", name, r)
		}
	}()
	return s.RunSource(src)
}

// resultJSON encodes a result for hashing.
func resultJSON(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// resultsGolden renders the golden text: one line per grid run (name,
// cycles, deadlock flag, error and the SHA-256 of the Result's JSON), then
// one line per configuration of the seeded random traces (how many
// deadlocked and the SHA-256 of all their results' JSON, concatenated),
// then the grid lines again on four more machine shapes.
func resultsGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("# Simulator results: the default plan's traces at 8 cores x 32 iterations, then\n")
	b.WriteString("# 1,500 seeded random traces at 4 cores, under every RMW type x deadlock\n")
	b.WriteString("# avoidance x parallel drain.\n")
	b.WriteString("# Regenerate with: go test ./internal/sim -run TestResultsGolden -update\n")

	// The grid and the random traces also check the simulator's invariants
	// after every event.
	disarm := sim.ArmInvariantChecks()
	defer disarm()
	writeGrid(t, &b, "", sim.DefaultConfig().WithCores(8), 32)

	// The random traces run on a small machine with a tight cycle limit.
	// Any of them may deadlock when avoidance is off, but none may panic
	// or fail.
	small := sim.DefaultConfig().WithCores(4)
	small.MaxCycles = 10_000_000
	names, cfgs := goldenConfigs(small)
	hashes := make([]hash.Hash, len(cfgs))
	deadlocks := make([]int, len(cfgs))
	for i := range hashes {
		hashes[i] = sha256.New()
	}
	rng := rand.New(rand.NewSource(20130601))
	for n := 0; n < 1500; n++ {
		tr := randomTrace(rng, n)
		for i, cfg := range cfgs {
			res, err := simulate(t, tr.Name+"/"+names[i], cfg, tr.Source())
			if err != nil {
				t.Fatalf("%s under %s: %v\ntrace: %v", tr.Name, names[i], err, tr.PerCore)
			}
			if res.Deadlocked {
				deadlocks[i]++
			}
			hashes[i].Write(resultJSON(t, res))
		}
	}
	for i, name := range names {
		fmt.Fprintf(&b, "random/%s deadlocked=%d sha256=%s\n", name, deadlocks[i], hex.EncodeToString(hashes[i].Sum(nil)))
	}

	// The shapes run unchecked: recounting their larger line tables after
	// every lock and unlock would take minutes.
	disarm()
	b.WriteString("# The default plan's traces at 16 iterations on the machine shapes the\n")
	b.WriteString("# simulator's fast paths special-case: 32 cores (the sweep's), 6 cores (a\n")
	b.WriteString("# 3x2 mesh, lines homed modulo 6), 72 cores (two sharer words), and 8 cores\n")
	b.WriteString("# with a 12 KB 4-way L1 (48 sets, not a power of two, small enough to evict).\n")
	for _, cores := range []int{32, 6, 72} {
		writeGrid(t, &b, fmt.Sprintf("cores=%d/", cores), sim.DefaultConfig().WithCores(cores), 16)
	}
	smallL1 := sim.DefaultConfig().WithCores(8)
	smallL1.L1SizeBytes = 12 * 1024
	writeGrid(t, &b, "l1=12KB-4way/", smallL1, 16)
	return b.String()
}

// writeGrid appends one golden line per default-plan trace and grid
// configuration derived from base (name, cycles, deadlock flag, error and
// the SHA-256 of the Result's JSON), each name behind prefix.
func writeGrid(t *testing.T, b *strings.Builder, prefix string, base sim.Config, iterations int) {
	t.Helper()
	names, cfgs := goldenConfigs(base)
	for _, src := range goldenSources(t, base.Cores, iterations) {
		for i, cfg := range cfgs {
			name := prefix + src.Name() + "/" + names[i]
			res, err := simulate(t, name, cfg, src)
			errText := "-"
			if err != nil {
				errText = err.Error()
			}
			sum := sha256.Sum256(resultJSON(t, res))
			fmt.Fprintf(b, "%s cycles=%d deadlocked=%t err=%s sha256=%s\n",
				name, res.Cycles, res.Deadlocked, errText, hex.EncodeToString(sum[:]))
		}
	}
}

// TestResultsGolden pins every field of the simulator's results on the
// default plan's traces and on 1,500 seeded random traces to
// testdata/results.golden, so a change to the event loop, the directory
// or the write buffer cannot silently move a cycle count, a statistic or
// a deadlock. The grid and random runs also check the drain counters and
// the lock counts after each event.
func TestResultsGolden(t *testing.T) {
	got := resultsGolden(t)
	path := filepath.Join("testdata", "results.golden")
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
			t.Errorf("results drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
	if t.Failed() {
		t.Log("bless intentional changes with -update")
	}
}
