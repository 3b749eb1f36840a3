package engine_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// foldFlags is the reference folding of the experiments binary's sweep
// flags into options and a seed list: each override replaces the
// preset's value when set, and -seeds n counts up from the base seed.
func foldFlags(quick bool, cores int, scale float64, seed int64, seeds int) (experiments.Options, []int64) {
	opts := experiments.DefaultOptions()
	if quick {
		opts = experiments.QuickOptions()
	}
	if cores > 0 {
		opts.Cores = cores
	}
	if scale > 0 {
		opts.Scale = scale
	}
	if seed != 0 {
		opts.Seed = seed
	}
	list := []int64{opts.Seed}
	for s := int64(1); s < int64(seeds); s++ {
		list = append(list, opts.Seed+s)
	}
	return opts, list
}

// TestSweepSpecMatchesFlagFolding checks that a spec resolves to the
// options and seeds the flag folding gives, and so to a plan with the
// same fingerprint: for -quick, for -cores, -scale and -seed overrides,
// for -seeds 3, and for the default preset under both of its names.
func TestSweepSpecMatchesFlagFolding(t *testing.T) {
	cases := []struct {
		name  string
		spec  engine.SweepSpec
		quick bool
	}{
		{"quick", engine.SweepSpec{Preset: "quick"}, true},
		{"cores", engine.SweepSpec{Preset: "quick", Cores: 4}, true},
		{"scale", engine.SweepSpec{Preset: "quick", Scale: 0.05}, true},
		{"seed", engine.SweepSpec{Preset: "quick", Seed: 7}, true},
		{"seeds", engine.SweepSpec{Preset: "quick", Seeds: 3}, true},
		{"all overrides", engine.SweepSpec{Preset: "quick", Cores: 4, Scale: 0.05, Seed: 7, Seeds: 3}, true},
		{"default", engine.SweepSpec{Preset: "default", Cores: 4, Scale: 0.05}, false},
		{"unnamed default", engine.SweepSpec{Cores: 4, Scale: 0.05}, false},
	}
	for _, c := range cases {
		opts, seeds, err := c.spec.Options()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		wantOpts, wantSeeds := foldFlags(c.quick, c.spec.Cores, c.spec.Scale, c.spec.Seed, c.spec.Seeds)
		if !reflect.DeepEqual(opts, wantOpts) || !reflect.DeepEqual(seeds, wantSeeds) {
			t.Errorf("%s: Options() = %+v %v, want %+v %v", c.name, opts, seeds, wantOpts, wantSeeds)
			continue
		}
		got, err := engine.DefaultPlanSeeds(opts, seeds...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := engine.DefaultPlanSeeds(wantOpts, wantSeeds...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s: plan fingerprint %s, want %s", c.name, got.Fingerprint(), want.Fingerprint())
		}
	}
}

// TestSweepSpecRejects pins the spec's own errors: an unknown preset
// first, then a negative core count, scale or seed count.
func TestSweepSpecRejects(t *testing.T) {
	for _, c := range []struct {
		spec engine.SweepSpec
		want string
	}{
		{engine.SweepSpec{Preset: "huge", Cores: -1}, `unknown plan preset "huge"`},
		{engine.SweepSpec{Preset: "quick", Cores: -1, Scale: -1}, "plan cores must be positive, got -1"},
		{engine.SweepSpec{Preset: "quick", Scale: -2, Seeds: -1}, "plan scale must be positive, got -2"},
		{engine.SweepSpec{Preset: "quick", Seeds: -1}, "plan seeds must be positive, got -1"},
	} {
		if _, _, err := c.spec.Options(); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%+v: error %v, want %q", c.spec, err, c.want)
		}
	}
}

// poisonFirst returns an engine whose fault injector fails the plan's
// first unit, and that unit.
func poisonFirst(plan *engine.Plan, opts ...engine.Option) (*engine.Engine, engine.Unit) {
	poisoned := plan.Units()[0]
	fault := engine.WithFaultInjector(func(u engine.Unit) error {
		if u.ID == poisoned.ID {
			return errors.New("injected poison")
		}
		return nil
	})
	return engine.New(append(opts, fault)...), poisoned
}

// TestDeadLetteredJobReturnsItsPartialShard checks that a plan job with a
// dead letter hands back its partial shard beside the *DeadLetterError,
// from RunPlan and from JobHandle.Wait alike: the shard holds every other
// unit and lists the dead letter, and the error names the same dead
// letters and counts the same finished units.
func TestDeadLetteredJobReturnsItsPartialShard(t *testing.T) {
	plan, err := engine.DefaultPlan(reportOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng, poisoned := poisonFirst(plan)
	check := func(how string, sr *engine.ShardResult, err error) {
		t.Helper()
		var dle *engine.DeadLetterError
		if !errors.As(err, &dle) {
			t.Fatalf("%s: want *DeadLetterError, got %v", how, err)
		}
		if sr == nil {
			t.Fatalf("%s: no shard beside %v", how, err)
		}
		if len(sr.Units) != plan.Len()-1 {
			t.Errorf("%s: partial holds %d units, want %d", how, len(sr.Units), plan.Len()-1)
		}
		c := sr.Coordination
		if c == nil || len(c.DeadLetters) != 1 || c.DeadLetters[0].Unit != string(poisoned.ID) {
			t.Fatalf("%s: coordination %+v, want the poisoned unit %s", how, c, poisoned.ID)
		}
		if !reflect.DeepEqual(dle.DeadLetters, c.DeadLetters) || dle.Finished != len(sr.Units) {
			t.Errorf("%s: error lists %+v after %d finished units, want the shard's %+v after %d",
				how, dle.DeadLetters, dle.Finished, c.DeadLetters, len(sr.Units))
		}
	}
	sr, err := eng.RunPlan(nil, plan, engine.FullShard())
	check("RunPlan", sr, err)
	h, err := eng.Submit(nil, engine.Job{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if res == nil {
		t.Fatalf("Wait returned no result beside %v", err)
	}
	check("Wait", res.Shard, err)
}

// TestStreamedEventsAreTheReturnedRecords checks that a plan job streams
// exactly the records it returns: every Event.Sim equals the job's
// UnitResult for that unit, and every Event.DeadLetter equals that unit's
// entry in the coordination section the report prints.
func TestStreamedEventsAreTheReturnedRecords(t *testing.T) {
	plan, err := engine.DefaultPlan(reportOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := poisonFirst(plan, engine.WithParallelism(4))
	var sims []engine.UnitResult
	var dead []engine.DeadUnit
	h, err := eng.Submit(nil, engine.Job{Plan: plan, Observer: func(ev engine.Event) {
		switch {
		case ev.Sim != nil && ev.DeadLetter == nil && ev.Litmus == nil:
			sims = append(sims, *ev.Sim)
		case ev.DeadLetter != nil && ev.Sim == nil && ev.Litmus == nil:
			dead = append(dead, *ev.DeadLetter)
		default:
			t.Errorf("event %+v does not set exactly one plan field", ev)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	var dle *engine.DeadLetterError
	if !errors.As(err, &dle) {
		t.Fatalf("want *DeadLetterError, got %v", err)
	}
	byUnit := map[engine.UnitID]engine.UnitResult{}
	for _, ur := range res.Shard.Units {
		byUnit[ur.Unit] = ur
	}
	if len(sims) != len(byUnit) {
		t.Fatalf("%d sim events for %d returned units", len(sims), len(byUnit))
	}
	for _, ev := range sims {
		if want, ok := byUnit[ev.Unit]; !ok || !reflect.DeepEqual(ev, want) {
			t.Errorf("sim event %+v, want the returned %+v", ev, want)
		}
	}
	report, err := plan.Report(res.Shard)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dead, report.Coordination.DeadLetters) {
		t.Errorf("dead-letter events %+v, want the report's %+v", dead, report.Coordination.DeadLetters)
	}
}

// TestPlanReportMatchesBuildReport checks Plan.Report against the
// assembly it replaces: for a full shard, BuildReport over Runs; for a
// dead-lettered shard, BuildReport over RunsPartial plus the shard's
// coordination section. Both must encode byte-identically in every
// format.
func TestPlanReportMatchesBuildReport(t *testing.T) {
	o := reportOptions()
	plan, err := engine.DefaultPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	full, err := engine.New().RunPlan(nil, plan, engine.FullShard())
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := poisonFirst(plan)
	partial, err := eng.RunPlan(nil, plan, engine.FullShard())
	if partial == nil || err == nil {
		t.Fatalf("poisoned run returned shard %v and error %v, want both", partial, err)
	}

	runs, err := plan.Runs(full.Units)
	if err != nil {
		t.Fatal(err)
	}
	wantFull, err := experiments.BuildReport(o, runs)
	if err != nil {
		t.Fatal(err)
	}
	partialRuns, missing, err := plan.RunsPartial(partial.Units)
	if err != nil || len(missing) != 1 {
		t.Fatalf("RunsPartial: %d missing, error %v", len(missing), err)
	}
	wantPartial, err := experiments.BuildReport(o, partialRuns)
	if err != nil {
		t.Fatal(err)
	}
	wantPartial.Coordination = partial.Coordination

	for _, c := range []struct {
		name string
		sr   *engine.ShardResult
		want *experiments.Report
	}{{"full", full, wantFull}, {"partial", partial, wantPartial}} {
		got, err := plan.Report(c.sr)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, format := range experiments.Formats() {
			enc, err := experiments.NewEncoder(format)
			if err != nil {
				t.Fatal(err)
			}
			var g, w bytes.Buffer
			if err := enc.Encode(&g, got); err != nil {
				t.Fatal(err)
			}
			if err := enc.Encode(&w, c.want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.Bytes(), w.Bytes()) {
				t.Errorf("%s %s: Plan.Report encodes %d bytes that differ from the %d of BuildReport", c.name, format, g.Len(), w.Len())
			}
		}
	}
}

// TestEngineMetricsCountFromStart checks the engine-wide collector's
// window: it starts when the engine is built, so after one job its
// elapsed time and unit rate are positive.
func TestEngineMetricsCountFromStart(t *testing.T) {
	plan, err := engine.BuildPlan(reportOptions(), experiments.Table3Specs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	if _, err := eng.RunPlan(nil, plan, engine.FullShard()); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.UnitsDone != plan.Len() || m.Elapsed <= 0 || m.UnitsPerSec <= 0 {
		t.Fatalf("engine metrics after one job: %d units done, elapsed %s, %g units/s; want %d, > 0 and > 0",
			m.UnitsDone, m.Elapsed, m.UnitsPerSec, plan.Len())
	}
}

// TestFinishedJobMetricsAreFinal checks that a job's counting window
// closes when the job finishes: two snapshots taken 20 ms apart after
// Wait are equal, elapsed time and rate included, while the engine-wide
// window stays open.
func TestFinishedJobMetricsAreFinal(t *testing.T) {
	plan, err := engine.BuildPlan(reportOptions(), experiments.Table3Specs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	h, err := eng.Submit(nil, engine.Job{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	first, engFirst := h.Metrics(), eng.Metrics()
	time.Sleep(20 * time.Millisecond)
	if second := h.Metrics(); second != first {
		t.Fatalf("finished job's metrics moved: %+v, then %+v", first, second)
	}
	if first.UnitsDone != plan.Len() || first.Elapsed <= 0 || first.UnitsPerSec <= 0 {
		t.Fatalf("finished job's metrics %+v, want %d units done at a positive rate", first, plan.Len())
	}
	if e := eng.Metrics().Elapsed; e <= engFirst.Elapsed {
		t.Fatalf("engine window stopped at %s (was %s)", e, engFirst.Elapsed)
	}
}
