package server

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/simcache"
)

// update regenerates the wire golden files instead of diffing:
//
//	go test ./internal/server -run Golden -update
var update = flag.Bool("update", false, "rewrite the wire golden files instead of diffing")

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestEventStreamsGolden pins the bytes of whole SSE replays: a plan
// job, the same sweep spelled another way (served from the cache), a
// litmus job and a plan job with one dead-lettered unit, each replayed
// from the start after it finished, and two Last-Event-ID resumes of the
// plan job. The engine has one worker, so every stream is in plan order.
func TestEventStreamsGolden(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	// The dead-lettered job runs the tiny sweep under another seed, so its
	// poisoned unit is in no other job's plan.
	const poisonSpec = `{"preset":"quick","cores":4,"scale":0.05,"seed":7}`
	opts := tinyPlanOptions()
	opts.Seed = 7
	plan, err := engine.DefaultPlanSeeds(opts, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := plan.Units()[3].ID
	cache, err := simcache.Open()
	if err != nil {
		t.Fatal(err)
	}
	srv.eng = engine.New(engine.WithParallelism(1), engine.WithCache(cache), engine.WithFaultInjector(func(u engine.Unit) error {
		if u.ID == poisoned {
			return errors.New("injected poison")
		}
		return nil
	}))

	events := func(id, lastID string) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("events of %s after %q: HTTP %d, %v", id, lastID, resp.StatusCode, err)
		}
		return body
	}
	var out bytes.Buffer
	var planID string
	for _, c := range []struct{ name, body, state string }{
		{"plan", `{"plan":` + tinyPlanSpec + `}`, "done"},
		{"warm plan", `{"plan":{"scale":0.05,"cores":4,"seed":20130601,"preset":"quick","seeds":1}}`, "done"},
		{"litmus", `{"litmus":{"name":"write-deadlock (Fig. 10)"}}`, "done"},
		{"dead-lettered plan", `{"plan":` + poisonSpec + `}`, "failed"},
	} {
		code, doc := submit(t, ts, c.body)
		if code != http.StatusAccepted {
			t.Fatalf("%s submit: HTTP %d: %v", c.name, code, doc)
		}
		id := doc["id"].(string)
		if final := waitDone(t, ts, id); final["state"] != c.state {
			t.Fatalf("%s job state = %v, want %s", c.name, final["state"], c.state)
		}
		if c.name == "plan" {
			planID = id
		}
		fmt.Fprintf(&out, "=== %s replay\n", c.name)
		out.Write(events(id, ""))
	}
	out.WriteString("=== plan resume after Last-Event-ID 20\n")
	out.Write(events(planID, "20"))
	out.WriteString("=== plan resume after the done frame's ID\n")
	out.Write(events(planID, "26"))
	checkGolden(t, "events.golden", out.Bytes())
}

// TestSubmitErrorBodiesGolden pins the exact 400 body of every submit
// in badSubmits.
func TestSubmitErrorBodiesGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out bytes.Buffer
	for _, tc := range badSubmits {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s: %d %s", tc.name, resp.StatusCode, body)
	}
	checkGolden(t, "submit_errors.golden", out.Bytes())
}
