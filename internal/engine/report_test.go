package engine_test

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// reportOptions shrink the sweep to test size.
func reportOptions() experiments.Options {
	o := experiments.QuickOptions()
	o.Cores = 4
	o.Scale = 0.05
	return o
}

// buildTestReport runs the quick sweep through the engine once and builds
// its report.
func buildTestReport(t *testing.T) (*experiments.Report, experiments.Options) {
	t.Helper()
	o := reportOptions()
	runs, err := runSpecs(o, experiments.Table3Specs())
	if err != nil {
		t.Fatal(err)
	}
	cpp, err := runSpecs(o, experiments.Cpp11Specs())
	if err != nil {
		t.Fatal(err)
	}
	r, err := experiments.BuildReport(o, append(runs, cpp...))
	if err != nil {
		t.Fatal(err)
	}
	return r, o
}

// TestBuildReport covers the model's shape: every section populated, the
// schema stamped, and Table 3 restricted to the non-replacement runs.
func TestBuildReport(t *testing.T) {
	r, o := buildTestReport(t)
	if r.SchemaVersion != experiments.ReportSchemaVersion {
		t.Errorf("schema version %d", r.SchemaVersion)
	}
	if r.Cores != o.Cores || r.Seed != o.Seed || r.Scale != o.Scale {
		t.Errorf("run shape not recorded: %+v", r)
	}
	if len(r.Table1) != 3 || !r.Table1Matches {
		t.Errorf("Table 1: %d rows, matches=%v", len(r.Table1), r.Table1Matches)
	}
	if len(r.Table2) == 0 || len(r.Table4) != 9 {
		t.Errorf("Table 2 (%d rows) or Table 4 (%d rows) malformed", len(r.Table2), len(r.Table4))
	}
	if len(r.Table3) != 7 {
		t.Errorf("Table 3 has %d rows, want 7 (replacement variants must not leak in)", len(r.Table3))
	}
	if len(r.Fig11a) != 9 || len(r.Fig11b) != 9 {
		t.Errorf("Fig. 11 entries: %d/%d, want 9/9", len(r.Fig11a), len(r.Fig11b))
	}
}

// TestJSONEncoderRoundTrips asserts the JSON encoding decodes back into
// a deeply equal Report and that encoding is deterministic.
func TestJSONEncoderRoundTrips(t *testing.T) {
	r, _ := buildTestReport(t)
	var a, b bytes.Buffer
	if err := (experiments.JSONEncoder{}).Encode(&a, r); err != nil {
		t.Fatal(err)
	}
	if err := (experiments.JSONEncoder{}).Encode(&b, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("JSON encoding is not deterministic")
	}
	back, err := experiments.DecodeReportJSON(a.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Fatal("JSON round trip lost data")
	}
	// A wrong schema version must be rejected.
	bad := bytes.Replace(a.Bytes(), []byte(`"schema_version": 1`), []byte(`"schema_version": 99`), 1)
	if _, err := experiments.DecodeReportJSON(bad); err == nil {
		t.Fatal("alien schema version accepted")
	}
}

// TestCSVEncoderParses asserts every CSV section parses with encoding/csv
// (comment '#') and carries the expected sections.
func TestCSVEncoderParses(t *testing.T) {
	r, _ := buildTestReport(t)
	var b bytes.Buffer
	if err := (experiments.CSVEncoder{}).Encode(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, section := range []string{"# table1", "# table2", "# table3", "# table4", "# fig11a", "# fig11b", "# summary"} {
		if !strings.Contains(out, section+"\n") {
			t.Errorf("CSV output lacks section %q", section)
		}
	}
	cr := csv.NewReader(strings.NewReader(out))
	cr.Comment = '#'
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		t.Fatalf("CSV output does not parse: %v", err)
	}
	// 7 headers + 3+len(t2)+7+9+9+9+1 data rows.
	want := 7 + 3 + len(r.Table2) + 7 + 9 + 9 + 9 + 1
	if len(records) != want {
		t.Errorf("CSV has %d records, want %d", len(records), want)
	}
}

// TestRenderWrappersMatchASCIIEncoder pins that the exported section
// renderers (which the table modes print) and the ASCII encoder share one
// rendering, so a section rendered standalone appears verbatim in the
// full encoding; Table 2 rendered from the options' configuration is the
// report's Table 2.
func TestRenderWrappersMatchASCIIEncoder(t *testing.T) {
	r, o := buildTestReport(t)
	var b bytes.Buffer
	if err := (experiments.ASCIIEncoder{}).Encode(&b, r); err != nil {
		t.Fatal(err)
	}
	full := b.String()
	for name, section := range map[string]string{
		"Table1":  experiments.RenderTable1(r.Table1),
		"Table2":  experiments.RenderTable2(o.BaseConfig().Table2()),
		"Table3":  experiments.RenderTable3(r.Table3),
		"Table4":  experiments.RenderTable4(r.Table4),
		"Fig11a":  experiments.RenderFig11a(r.Fig11a),
		"Fig11b":  experiments.RenderFig11b(r.Fig11b),
		"Summary": r.Summary.Render(),
	} {
		if !strings.Contains(full, section) {
			t.Errorf("ASCII encoding does not contain the %s section verbatim", name)
		}
	}
}
