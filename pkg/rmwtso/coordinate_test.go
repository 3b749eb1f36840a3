package rmwtso_test

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/pkg/rmwtso"
)

// coordConfig compresses the coordination timescales for tests while
// keeping the state machine's semantics (outcomes are asserted on state,
// not timing).
func coordConfig() rmwtso.CoordinationConfig {
	return rmwtso.CoordinationConfig{
		LeaseTTL:     200 * time.Millisecond,
		MaxAttempts:  3,
		RetryBackoff: 5 * time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
		Heartbeat:    20 * time.Millisecond,
	}
}

// staticBaseline runs the plan unsharded on the static pool and returns
// the expected runs, report and encodings.
func staticBaseline(t *testing.T, o rmwtso.Options, plan *rmwtso.Plan) ([]*rmwtso.BenchmarkRun, *rmwtso.Report, map[string][]byte) {
	t.Helper()
	full, err := rmwtso.NewRunner().RunPlan(nil, plan, rmwtso.FullShard())
	if err != nil {
		t.Fatal(err)
	}
	runs, err := plan.Runs(full.Units)
	if err != nil {
		t.Fatal(err)
	}
	report, err := rmwtso.BuildReport(o, runs)
	if err != nil {
		t.Fatal(err)
	}
	return runs, report, encodeAll(t, report)
}

// checkCoordinatedIdentity asserts the coordinated shard result carries a
// coordination section and that, with the section stripped, its runs and
// report encodings are byte-identical to the static baseline's.
func checkCoordinatedIdentity(t *testing.T, o rmwtso.Options, plan *rmwtso.Plan, res *rmwtso.ShardResult,
	mode string, wantRuns []*rmwtso.BenchmarkRun, wantBytes map[string][]byte) {
	t.Helper()
	if res.Coordination == nil || res.Coordination.Mode != mode {
		t.Fatalf("coordination section %+v, want mode %q", res.Coordination, mode)
	}
	if len(res.Coordination.DeadLetters) != 0 {
		t.Fatalf("completed sweep has dead letters: %+v", res.Coordination.DeadLetters)
	}
	units := 0
	for _, w := range res.Coordination.Workers {
		units += w.Units
	}
	if units != plan.Len() {
		t.Errorf("per-worker unit counts sum to %d, plan has %d", units, plan.Len())
	}
	runs, err := plan.Runs(res.Units)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(runs, wantRuns) {
		t.Fatalf("coordinated runs differ from the static run")
	}
	report, err := rmwtso.BuildReport(o, runs)
	if err != nil {
		t.Fatal(err)
	}
	for format, want := range wantBytes {
		var b bytes.Buffer
		if err := rmwtso.EncodeReport(&b, report, format); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), want) {
			t.Fatalf("%s encoding of the coordinated report is not byte-identical", format)
		}
	}
}

// TestCoordinatedPoisonDeadLetters drives a permanently failing unit
// through the static pool: the sweep finishes, the error is a
// *DeadLetterError naming the unit and its failure, the unit is
// dead-lettered after its one attempt, the partial result still carries
// every other unit, and RunsPartial reassembles the complete groups
// while listing the missing unit.
func TestCoordinatedPoisonDeadLetters(t *testing.T) {
	o := shardOptions()
	plan, err := rmwtso.DefaultPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := plan.Units()[0].ID

	runner := rmwtso.NewRunner(rmwtso.WithFaultInjector(func(_ string, u rmwtso.Unit, attempt int) error {
		if u.ID == poisoned {
			return fmt.Errorf("injected poison (attempt %d)", attempt)
		}
		return nil
	}))
	_, err = runner.RunPlan(nil, plan, rmwtso.FullShard())
	var dle *rmwtso.DeadLetterError
	if !errors.As(err, &dle) {
		t.Fatalf("want *DeadLetterError, got %v", err)
	}
	const reason = "injected poison (attempt 1)"
	for _, want := range []string{string(poisoned), "dead-lettered", reason} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not name %q: %v", want, err)
		}
	}

	partial := dle.Partial
	if len(partial.Units) != plan.Len()-1 {
		t.Fatalf("partial has %d units, want %d", len(partial.Units), plan.Len()-1)
	}
	c := partial.Coordination
	if c.Mode != "in-process" || len(c.DeadLetters) != 1 {
		t.Fatalf("coordination %+v, want in-process mode with one dead letter", c)
	}
	if d := c.DeadLetters[0]; d.Unit != string(poisoned) || d.Attempts != 1 || !reflect.DeepEqual(d.Reasons, []string{reason}) {
		t.Fatalf("dead letter %+v, want %s after 1 attempt with reason %q", d, poisoned, reason)
	}

	runs, missing, err := plan.RunsPartial(partial.Units)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 1 || missing[0] != poisoned {
		t.Fatalf("missing %v, want [%s]", missing, poisoned)
	}
	// Exactly the poisoned unit's group is dropped; every complete group
	// survives into the partial report.
	var groups []string
	seen := map[string]bool{}
	for _, u := range plan.Units() {
		if !seen[u.Trace] {
			seen[u.Trace] = true
			groups = append(groups, u.Trace)
		}
	}
	if len(runs) != len(groups)-1 {
		t.Fatalf("partial runs %d, want %d", len(runs), len(groups)-1)
	}
	report, err := rmwtso.BuildReport(o, runs)
	if err != nil {
		t.Fatal(err)
	}
	report.Coordination = partial.Coordination
	var b bytes.Buffer
	if err := rmwtso.EncodeReport(&b, report, rmwtso.FormatASCII); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "DEAD-LETTERED") || !strings.Contains(b.String(), string(poisoned)) {
		t.Errorf("partial ASCII report does not list the dead-lettered unit")
	}
}

// TestCoordinatedHTTPSweep runs the multi-machine shape in miniature:
// a CoordServer over httptest, three RunPlanWorker clients (one of which
// crashes mid-sweep and is replaced by lease expiry), and the assembled
// result byte-identical to the static baseline.
func TestCoordinatedHTTPSweep(t *testing.T) {
	o := shardOptions()
	plan, err := rmwtso.DefaultPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	wantRuns, _, wantBytes := staticBaseline(t, o, plan)

	server, err := rmwtso.NewRunner().NewCoordServer(plan, rmwtso.FullShard(), coordConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(server.Handler())
	defer hs.Close()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		var opts []rmwtso.Option
		if i == 2 {
			var crashed atomic.Bool
			opts = append(opts, rmwtso.WithFaultInjector(func(string, rmwtso.Unit, int) error {
				if crashed.CompareAndSwap(false, true) {
					return rmwtso.ErrInjectedCrash
				}
				return nil
			}))
		}
		worker := rmwtso.NewRunner(opts...)
		name := fmt.Sprintf("http-worker-%d", i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := worker.RunPlanWorker(nil, plan, hs.URL, name, coordConfig())
			if i == 2 {
				if !errors.Is(err, rmwtso.ErrInjectedCrash) {
					t.Errorf("crashing worker exit: %v", err)
				}
				return
			}
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}

	res, err := server.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	checkCoordinatedIdentity(t, o, plan, res, "http", wantRuns, wantBytes)
	if res.Coordination.Expired < 1 {
		t.Errorf("crashed HTTP worker left no expiry: %+v", res.Coordination)
	}
	var names []string
	for _, w := range res.Coordination.Workers {
		names = append(names, w.Worker)
	}
	sort.Strings(names)
	if len(names) != 3 {
		t.Errorf("worker names %v", names)
	}
}
