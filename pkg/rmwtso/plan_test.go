package rmwtso_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/pkg/rmwtso"
)

// planTable renders a plan as the stable tab-separated listing pinned by
// the golden file: one line per unit with its ID, trace, type and seed.
func planTable(p *rmwtso.Plan) string {
	var b strings.Builder
	b.WriteString("# Golden unit IDs for the default sweep plan (DefaultOptions).\n")
	b.WriteString("# Regenerate with: go test ./pkg/rmwtso -run TestPlanGolden -update\n")
	b.WriteString("# A diff here means unit identities moved: cached results and in-flight\n")
	b.WriteString("# shard artifacts no longer address the same work. Bless it only on purpose.\n")
	for _, u := range p.Units() {
		fmt.Fprintf(&b, "%s\t%s\t%s\t%d\n", u.ID, u.Trace, u.Type, u.Seed)
	}
	return b.String()
}

// TestPlanGolden pins the unit IDs of the default plan. Unit IDs derive
// from the simcache key material, so any change that re-keys the cache
// (config digest, workload digest, schema version) shows up here as a
// reviewable diff instead of a silent fleet-wide identity shift.
func TestPlanGolden(t *testing.T) {
	plan, err := rmwtso.DefaultPlan(rmwtso.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := planTable(plan)
	path := filepath.Join("testdata", "plan.golden")
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
	if got != string(want) {
		gotLines := strings.Split(got, "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("plan drifted from %s at line %d:\n got: %s\nwant: %s\n(bless intentional re-keying with -update)",
					path, i+1, g, w)
			}
		}
		t.Fatalf("plan drifted from %s (no differing line, e.g. trailing whitespace); bless with -update", path)
	}
}

// TestPlanDeterminism asserts two independently built plans agree on
// every unit and on the fingerprint, and that unit IDs are unique.
func TestPlanDeterminism(t *testing.T) {
	o := rmwtso.QuickOptions()
	a, err := rmwtso.DefaultPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rmwtso.DefaultPlan(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprints differ: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	au, bu := a.Units(), b.Units()
	if len(au) != len(bu) {
		t.Fatalf("unit counts differ: %d vs %d", len(au), len(bu))
	}
	seen := map[rmwtso.UnitID]bool{}
	for i := range au {
		if au[i].ID != bu[i].ID || au[i].Trace != bu[i].Trace || au[i].Type != bu[i].Type {
			t.Fatalf("unit %d differs: %+v vs %+v", i, au[i], bu[i])
		}
		if seen[au[i].ID] {
			t.Fatalf("duplicate unit ID %s", au[i].ID)
		}
		seen[au[i].ID] = true
	}
}

// TestPlanShardInvariance is the sharding property test: for several
// shard counts, the shards partition the plan exactly — every unit is
// covered by exactly one shard — and unit IDs are invariant: the ID a
// unit has inside any shard selection equals its ID in the full plan.
func TestPlanShardInvariance(t *testing.T) {
	plan, err := rmwtso.DefaultPlan(rmwtso.QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	all := plan.Select(rmwtso.FullShard())
	if len(all) != plan.Len() {
		t.Fatalf("full shard selects %d of %d units", len(all), plan.Len())
	}
	for _, n := range []int{1, 2, 3, 4, 7, plan.Len(), plan.Len() + 5} {
		covered := map[rmwtso.UnitID]int{}
		for i := 0; i < n; i++ {
			for _, u := range plan.Select(rmwtso.Shard{Index: i, Count: n}) {
				covered[u.ID]++
				if full, ok := plan.Unit(u.ID); !ok || full.Type != u.Type || full.Trace != u.Trace {
					t.Fatalf("n=%d: shard unit %s does not match its plan entry", n, u.ID)
				}
			}
		}
		if len(covered) != plan.Len() {
			t.Fatalf("n=%d: %d of %d units covered", n, len(covered), plan.Len())
		}
		for id, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d: unit %s covered %d times", n, id, c)
			}
		}
	}
}

// TestShardValidation covers the selector's error cases and parser.
func TestShardValidation(t *testing.T) {
	for _, bad := range []rmwtso.Shard{
		{Index: -1, Count: 3},
		{Index: 3, Count: 3},
		{Index: 1, Count: 0},
		{Count: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("shard %+v validated", bad)
		}
	}
	if err := rmwtso.FullShard().Validate(); err != nil {
		t.Errorf("full shard rejected: %v", err)
	}
	s, err := rmwtso.ParseShard("2/4")
	if err != nil || s.Index != 2 || s.Count != 4 {
		t.Errorf("ParseShard(2/4) = %+v, %v", s, err)
	}
	for _, bad := range []string{"", "2", "a/4", "2/b", "4/4", "-1/4", "0/0"} {
		if _, err := rmwtso.ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}
