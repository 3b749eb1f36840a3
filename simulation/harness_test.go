package simulation

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
)

// chaosSeed seeds every scenario's chaos spec and the harness's own
// random choices (which cache entries to corrupt, ...). A failing
// scenario logs the value, so `-chaos.seed=N` replays it exactly.
var chaosSeed = flag.Int64("chaos.seed", 1, "seed for scenario chaos specs; printed on failure for replay")

// bin is the experiments binary every scenario scripts, built once in
// TestMain. It is built without -race: the scenarios treat it as a black
// box whose outputs they compare, and the code it runs gets its -race
// coverage from the packages' own tests. An uninstrumented binary keeps
// each scripted sweep fast.
var bin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "rmwtso-simulation-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulation:", err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "experiments")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/experiments")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "simulation: building cmd/experiments:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// quickFlags is the base sweep configuration of most scenarios: small
// enough that a full sweep takes well under a second.
func quickFlags() []string { return []string{"-quick", "-cores", "4", "-scale", "0.05"} }

// scenarioTimeout bounds every scripted process: the acceptance rule
// that no scenario may hang is enforced by construction.
const scenarioTimeout = 120 * time.Second

// procResult is the observed outcome of one scripted process.
type procResult struct {
	Stdout string
	Stderr string
	Code   int
}

// command builds the exec.Cmd for one scripted run of the experiments
// binary, arming the chaos spec (if any) through the environment. The
// inherited environment is scrubbed of RMWTSO_CHAOS first, so faults
// never leak between scenarios or in from the developer's shell.
func command(ctx context.Context, spec *chaos.Spec, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	env := os.Environ()
	kept := env[:0]
	for _, kv := range env {
		if !strings.HasPrefix(kv, chaos.Env+"=") {
			kept = append(kept, kv)
		}
	}
	if spec != nil {
		kept = append(kept, chaos.Env+"="+spec.Encode())
	}
	cmd.Env = kept
	return cmd
}

// run executes one scripted process to completion and returns its
// outcome. A process that outlives the scenario timeout fails the test
// (that is the no-hang guarantee, applied to every single step).
func run(t *testing.T, spec *chaos.Spec, args ...string) procResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), scenarioTimeout)
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := command(ctx, spec, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("hang: %v did not finish within %s\nstderr so far:\n%s", args, scenarioTimeout, stderr.String())
	}
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return procResult{Stdout: stdout.String(), Stderr: stderr.String(), Code: code}
}

// proc is one scripted background process (a shard worker or a sweep
// running alongside others).
type proc struct {
	cmd    *exec.Cmd
	cancel context.CancelFunc
	stdout bytes.Buffer
	stderr bytes.Buffer
	done   chan error
}

// start launches a background process under the scenario timeout.
func start(t *testing.T, spec *chaos.Spec, args ...string) *proc {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), scenarioTimeout)
	p := &proc{cancel: cancel, done: make(chan error, 1)}
	p.cmd = command(ctx, spec, args...)
	p.cmd.Stdout, p.cmd.Stderr = &p.stdout, &p.stderr
	if err := p.cmd.Start(); err != nil {
		cancel()
		t.Fatalf("starting %v: %v", args, err)
	}
	go func() { p.done <- p.cmd.Wait() }()
	t.Cleanup(func() {
		p.kill()
		p.cancel()
	})
	return p
}

// kill SIGKILLs the process (idempotent; no-op once exited).
func (p *proc) kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
	}
}

// wait blocks until the process exits and returns its outcome; the
// scenario timeout turns a hung process into a test failure upstream.
func (p *proc) wait(t *testing.T) procResult {
	t.Helper()
	err := <-p.done
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("waiting for %v: %v", p.cmd.Args, err)
		}
		code = ee.ExitCode()
	}
	return procResult{Stdout: p.stdout.String(), Stderr: p.stderr.String(), Code: code}
}

// references memoizes unfaulted runs per (flags, format), so every
// scenario compares against the same ground truth without paying for a
// clean sweep per assertion.
var (
	refMu  sync.Mutex
	refOut = map[string]string{}
)

// reference returns the stdout of an unfaulted run of the binary with
// the given sweep flags and format.
func reference(t *testing.T, flags []string, format string) string {
	t.Helper()
	key := strings.Join(flags, " ") + "|" + format
	refMu.Lock()
	defer refMu.Unlock()
	if out, ok := refOut[key]; ok {
		return out
	}
	res := run(t, nil, append(append([]string{}, flags...), "-format", format)...)
	if res.Code != 0 {
		t.Fatalf("unfaulted reference run failed (%d):\n%s", res.Code, res.Stderr)
	}
	refOut[key] = res.Stdout
	return res.Stdout
}

// planUnits returns the sweep's unit IDs in plan order for the flags.
func planUnits(t *testing.T, flags []string) []string {
	t.Helper()
	res := run(t, nil, append(append([]string{}, flags...), "-list-units")...)
	if res.Code != 0 {
		t.Fatalf("-list-units failed (%d):\n%s", res.Code, res.Stderr)
	}
	var ids []string
	for _, line := range strings.Split(res.Stdout, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] == "UNIT" || strings.Contains(line, "units, plan") {
			continue
		}
		ids = append(ids, fields[0])
	}
	if len(ids) == 0 {
		t.Fatalf("no units parsed from listing:\n%s", res.Stdout)
	}
	return ids
}

// coordination extracts the coordination section of a JSON report.
func coordination(t *testing.T, report string) map[string]any {
	t.Helper()
	var m struct {
		Coordination map[string]any `json:"coordination"`
	}
	if err := json.Unmarshal([]byte(report), &m); err != nil {
		t.Fatalf("unparsable report JSON: %v\n%s", err, clip(report))
	}
	return m.Coordination
}

// deadLetterUnits returns the unit IDs of a report's dead-letter
// section, or nil when absent.
func deadLetterUnits(t *testing.T, report string) []string {
	t.Helper()
	var m struct {
		Coordination struct {
			DeadLetters []struct {
				Unit string `json:"unit"`
			} `json:"dead_letters"`
		} `json:"coordination"`
	}
	if err := json.Unmarshal([]byte(report), &m); err != nil {
		t.Fatalf("unparsable report JSON: %v\n%s", err, clip(report))
	}
	var ids []string
	for _, d := range m.Coordination.DeadLetters {
		ids = append(ids, d.Unit)
	}
	return ids
}

// jsonInto unmarshals a report into a typed view.
func jsonInto(report string, v any) error {
	return json.Unmarshal([]byte(report), v)
}

// harnessRand returns the scenario's own deterministic random source,
// derived from -chaos.seed plus a per-scenario salt so scenarios do not
// share a decision stream.
func harnessRand(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(*chaosSeed ^ salt))
}

// clip bounds long process output in failure messages.
func clip(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "\n... (clipped)"
	}
	return s
}

// scenarioDir returns the scenario's artifact directory. By default it
// is an ordinary auto-cleaned test temp dir; with SIM_ARTIFACT_DIR set
// (as CI sets it) directories are created under that root and survive
// the run, so a failing job can upload the artifacts a scenario left
// behind — torn temps, shard files, cache entries — next to the seed.
func scenarioDir(t *testing.T) string {
	t.Helper()
	root := os.Getenv("SIM_ARTIFACT_DIR")
	if root == "" {
		return t.TempDir()
	}
	base := filepath.Join(root, strings.ReplaceAll(t.Name(), "/", "_"))
	if err := os.MkdirAll(base, 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(base, "")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// tempPrefixFiles globs dir for orphaned atomic-write temp files.
func tempPrefixFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}
