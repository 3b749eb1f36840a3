package rmwtso_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/pkg/rmwtso"
)

// TestPoisonedUnitDeadLetters drives a permanently failing unit through
// the static pool: the sweep finishes, the error is a
// *DeadLetterError naming the unit and its failure, the unit is
// dead-lettered after its one attempt, the partial result still carries
// every other unit, and RunsPartial reassembles the complete groups
// while listing the missing unit.
func TestPoisonedUnitDeadLetters(t *testing.T) {
	o := shardOptions()
	plan, err := rmwtso.DefaultPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := plan.Units()[0].ID

	const reason = "injected poison"
	runner := rmwtso.NewRunner(rmwtso.WithFaultInjector(func(u rmwtso.Unit) error {
		if u.ID == poisoned {
			return errors.New(reason)
		}
		return nil
	}))
	_, err = runner.RunPlan(nil, plan, rmwtso.FullShard())
	var dle *rmwtso.DeadLetterError
	if !errors.As(err, &dle) {
		t.Fatalf("want *DeadLetterError, got %v", err)
	}
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
