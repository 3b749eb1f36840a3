package experiments

import (
	"reflect"
	"sync"
	"testing"
)

// TestNewEncoder covers format resolution.
func TestNewEncoder(t *testing.T) {
	for _, f := range Formats() {
		if _, err := NewEncoder(f); err != nil {
			t.Errorf("NewEncoder(%q): %v", f, err)
		}
	}
	if _, err := NewEncoder("xml"); err == nil {
		t.Error("NewEncoder accepted an unknown format")
	}
}

// TestBuildReportModelChecksOnce pins that Tables 1 and 4 are model
// checked once per process: after the first report, building one makes
// a few dozen allocations (model checking the tables makes about 1,800),
// each report owns its rows, and the memoized rows are what RunTable1 and
// RunTable4 compute afresh.
func TestBuildReportModelChecksOnce(t *testing.T) {
	o := Options{Cores: 4, Scale: 0.05}
	first, err := BuildReport(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := BuildReport(o, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 50 {
		t.Errorf("BuildReport makes %.0f allocations after the first report, want at most 50: it model checks again", allocs)
	}

	t1, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	t4, err := RunTable4()
	if err != nil {
		t.Fatal(err)
	}
	sem, err := semantics()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sem.table1, t1) || !reflect.DeepEqual(sem.table4, t4) {
		t.Fatalf("memoized tables differ from fresh ones:\nTable 1 %+v\nwant    %+v\nTable 4 %+v\nwant    %+v", sem.table1, t1, sem.table4, t4)
	}

	// A caller writing into its report's rows reaches neither the memo
	// nor the next report.
	for i := range first.Table1 {
		first.Table1[i].DekkerReads = !first.Table1[i].DekkerReads
	}
	for i := range first.Table4 {
		first.Table4[i].Sound = !first.Table4[i].Sound
		first.Table4[i].Counterexample = "overwritten"
	}
	next, err := BuildReport(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next.Table1, t1) || !reflect.DeepEqual(next.Table4, t4) {
		t.Fatalf("a write into one report's rows reached the next report")
	}
	if err := CheckTable1Matches(next.Table1); err != nil || !next.Table1Matches {
		t.Fatalf("after a write into one report's rows: Table1Matches %v, check %v", next.Table1Matches, err)
	}
}

// TestBuildReportConcurrent builds reports from eight goroutines at once;
// under the race detector it checks that they share the memo safely, and
// every report must carry the same tables.
func TestBuildReportConcurrent(t *testing.T) {
	const n = 8
	reports := make([]*Report, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i], errs[i] = BuildReport(Options{Cores: 4, Scale: 0.05}, nil)
		}()
	}
	wg.Wait()
	for i, r := range reports {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(r.Table1, reports[0].Table1) || !reflect.DeepEqual(r.Table4, reports[0].Table4) {
			t.Fatalf("goroutine %d got other tables than goroutine 0", i)
		}
		if !r.Table1Matches {
			t.Fatalf("goroutine %d: Table 1 does not match the paper", i)
		}
	}
}
