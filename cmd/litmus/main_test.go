package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/pkg/rmwtso"
)

// TestWriteJSONMatchesEncoder holds the streamed JSON output to what
// json.Encoder with a two-space indent writes for the whole slice of
// records, for 0, 1 and 3 verdicts.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	h, err := rmwtso.NewRunner(rmwtso.WithParallelism(1)).Submit(nil, rmwtso.Job{Litmus: &rmwtso.LitmusGrid{Tests: rmwtso.Suite().Tests()[:1]}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Verdicts) < 3 {
		t.Fatalf("%d verdicts, want at least 3", len(res.Verdicts))
	}
	for _, n := range []int{0, 1, 3} {
		results := res.Verdicts[:n]
		recs := make([]verdictRecord, n)
		for i, r := range results {
			recs[i] = record(r)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(recs); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := writeJSON(&got, results); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d verdicts: writeJSON wrote\n%s\njson.Encoder writes\n%s", n, got.Bytes(), want.Bytes())
		}
	}
}
