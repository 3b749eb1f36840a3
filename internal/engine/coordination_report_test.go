package engine_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// withCoordination attaches a representative coordination section.
func withCoordination(r *experiments.Report) *experiments.Report {
	r.Coordination = &experiments.Coordination{
		Mode: "in-process",
		DeadLetters: []experiments.DeadUnit{{
			Unit: "deadbeef00112233", Trace: "wsq-mst", Type: "type-2",
			Attempts: 1,
			Reasons:  []string{"simulated deadlock"},
		}, {
			Unit: "feedface44556677", Trace: "bayes", Type: "type-3",
			Attempts: 1,
			Reasons:  []string{"injected poison"},
		}},
	}
	return r
}

// TestCoordinationSectionRendered verifies every encoder renders the
// coordination section when present: its mode and every dead-lettered
// unit must be visible.
func TestCoordinationSectionRendered(t *testing.T) {
	report := withCoordination(mustBuildTestReport(t))
	for _, format := range experiments.Formats() {
		enc, err := experiments.NewEncoder(format)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := enc.Encode(&b, report); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		out := b.String()
		for _, want := range []string{"in-process", "deadbeef00112233", "wsq-mst", "feedface44556677", "injected poison"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s encoding misses %q", format, want)
			}
		}
	}
}

// TestCoordinationSectionOmitted verifies a static report (Coordination
// nil) encodes without any coordination artifacts, preserving backward
// byte-identity with pre-coordination reports.
func TestCoordinationSectionOmitted(t *testing.T) {
	report := mustBuildTestReport(t)
	for _, format := range experiments.Formats() {
		enc, err := experiments.NewEncoder(format)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := enc.Encode(&b, report); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if strings.Contains(strings.ToLower(b.String()), "coordination") {
			t.Errorf("%s encoding of a static report mentions coordination", format)
		}
	}
}

// TestCoordinationJSONRoundTrips verifies the section survives the
// JSON round trip (dashboards decode reports structurally).
func TestCoordinationJSONRoundTrips(t *testing.T) {
	report := withCoordination(mustBuildTestReport(t))
	var b bytes.Buffer
	if err := (experiments.JSONEncoder{}).Encode(&b, report); err != nil {
		t.Fatal(err)
	}
	back, err := experiments.DecodeReportJSON(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	c := back.Coordination
	if want := withCoordination(mustBuildTestReport(t)).Coordination; !reflect.DeepEqual(c, want) {
		t.Fatalf("round-tripped coordination %+v, want %+v", c, want)
	}
}

// mustBuildTestReport adapts the report fixture shared with the encoder
// tests.
func mustBuildTestReport(t *testing.T) *experiments.Report {
	t.Helper()
	r, _ := buildTestReport(t)
	return r
}
