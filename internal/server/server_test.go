package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// tinyPlanSpec is the sweep shape every test submits: the quick preset
// shrunk further so a full plan job finishes in seconds.
const tinyPlanSpec = `{"preset":"quick","cores":4,"scale":0.05}`

// tinyPlanOptions mirrors tinyPlanSpec through the same folding rule the
// server applies, for building the expected side of parity checks.
func tinyPlanOptions() engine.Options {
	opts := experiments.QuickOptions()
	opts.Cores = 4
	opts.Scale = 0.05
	return opts
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// submit POSTs a job body and decodes the JSON response.
func submit(t *testing.T, ts *httptest.Server, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return resp.StatusCode, doc
}

// getJSON fetches a path and decodes the JSON response.
func getJSON(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
	return resp.StatusCode, doc
}

// waitDone polls a job's status until it leaves the running state.
func waitDone(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		code, doc := getJSON(t, ts, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job status %s: HTTP %d: %v", id, code, doc)
		}
		if doc["state"] != "running" {
			return doc
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return nil
}

// expectedReportJSON runs the identical sweep through the batch pipeline
// (plan → engine → Plan.Runs → BuildReport → encoder), assembled here
// rather than by Plan.Report, and returns the encoded bytes the server
// must match.
func expectedReportJSON(t *testing.T, opts engine.Options) []byte {
	t.Helper()
	plan, err := engine.DefaultPlanSeeds(opts, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	h, err := eng.Submit(context.Background(), engine.Job{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	runs, err := plan.Runs(res.Shard.Units)
	if err != nil {
		t.Fatal(err)
	}
	report, err := experiments.BuildReport(opts, runs)
	if err != nil {
		t.Fatal(err)
	}
	report.Coordination = res.Shard.Coordination
	enc, err := experiments.NewEncoder(experiments.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := enc.Encode(&buf, report); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sseFrame is one parsed Server-Sent Events frame.
type sseFrame struct {
	id    string
	event string
	data  map[string]any
}

// readSSE consumes a /events stream until the terminal done frame.
func readSSE(t *testing.T, ts *httptest.Server, id string) []sseFrame {
	t.Helper()
	return readSSEAfter(t, ts, id, "")
}

// readSSEAfter is readSSE resuming after lastID, sent as the
// Last-Event-ID header when non-empty.
func readSSEAfter(t *testing.T, ts *httptest.Server, id, lastID string) []sseFrame {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q, want text/event-stream", ct)
	}
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			frames = append(frames, cur)
			if cur.event == "done" {
				return frames
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	t.Fatalf("stream ended without a done frame (read %d frames): %v", len(frames), sc.Err())
	return nil
}

// TestPlanJobLifecycle drives the cornerstone path end to end: submit a
// plan sweep over HTTP, follow it to completion, check every query
// surface against it (status, results by unit and by content key, SSE
// replay, /metrics), verify the report is byte-identical to the batch
// CLI pipeline, and finally drain with an artifact directory.
func TestPlanJobLifecycle(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{ArtifactDir: dir, DrainTimeout: time.Second})

	code, doc := submit(t, ts, `{"plan":`+tinyPlanSpec+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, doc)
	}
	id, _ := doc["id"].(string)
	if id == "" {
		t.Fatalf("submit response has no job id: %v", doc)
	}
	if doc["kind"] != "plan" || doc["mode"] != "static" {
		t.Fatalf("submit response kind/mode = %v/%v", doc["kind"], doc["mode"])
	}
	if doc["plan_fingerprint"] == "" {
		t.Fatalf("submit response has no plan fingerprint: %v", doc)
	}
	units := int(doc["units"].(float64))
	if units <= 0 {
		t.Fatalf("submit response units = %d, want > 0", units)
	}

	final := waitDone(t, ts, id)
	if final["state"] != "done" {
		t.Fatalf("job finished in state %v (error %v)", final["state"], final["error"])
	}
	metrics := final["metrics"].(map[string]any)
	if got := int(metrics["units_done"].(float64)); got != units {
		t.Fatalf("units_done = %d, want %d", got, units)
	}

	// The SSE stream replays the whole history for late subscribers:
	// exactly one sim frame per unit, sequence-numbered, then done.
	frames := readSSE(t, ts, id)
	if len(frames) != units+1 {
		t.Fatalf("SSE replay has %d frames, want %d units + done", len(frames), units)
	}
	unitSet := map[string]bool{}
	for i, fr := range frames[:units] {
		if fr.event != "sim" {
			t.Fatalf("frame %d event = %q, want sim", i, fr.event)
		}
		if fr.id != fmt.Sprint(i) || int(fr.data["seq"].(float64)) != i {
			t.Fatalf("frame %d has id %q seq %v, want %d", i, fr.id, fr.data["seq"], i)
		}
		unitSet[fr.data["unit"].(string)] = true
	}
	if len(unitSet) != units {
		t.Fatalf("SSE replay covered %d distinct units, want %d", len(unitSet), units)
	}

	// Every planned unit is queryable by ID and by full content key.
	opts := tinyPlanOptions()
	plan, err := engine.DefaultPlanSeeds(opts, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	u := plan.Units()[0]
	if code, doc := getJSON(t, ts, "/v1/results/"+string(u.ID)); code != http.StatusOK {
		t.Fatalf("result %s: HTTP %d: %v", u.ID, code, doc)
	}
	code, byKey := getJSON(t, ts, "/v1/results/by-key/"+u.Key.Digest())
	if code != http.StatusOK {
		t.Fatalf("result by key: HTTP %d: %v", code, byKey)
	}
	if byKey["unit"] != string(u.ID) {
		t.Fatalf("by-key lookup resolved unit %v, want %s", byKey["unit"], u.ID)
	}

	// The report endpoint must reproduce the batch pipeline's bytes.
	resp, err := http.Get(ts.URL + "/v1/reports/" + id + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := readAll(resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: HTTP %d: %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("report Content-Type = %q, want application/json", ct)
	}
	want := expectedReportJSON(t, opts)
	if !bytes.Equal(got, want) {
		t.Fatalf("report bytes differ from the batch pipeline's (%d vs %d bytes)", len(got), len(want))
	}

	// The ASCII encoding serves too (spot-check, not byte-compared here).
	if resp, err := http.Get(ts.URL + "/v1/reports/" + id); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("ascii report: %v / HTTP %d", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// /metrics speaks Prometheus text format and has absorbed the sweep.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := readAll(mresp)
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	text := string(mbody)
	for _, want := range []string{
		"# TYPE rmwtso_units_done_total counter",
		fmt.Sprintf("rmwtso_units_done_total %d\n", units),
		"rmwtso_cache_hits_total ",
		"rmwtso_cache_misses_total ",
		"rmwtso_units_per_second ",
		"rmwtso_jobs_inflight 0",
		"rmwtso_jobs_total 1",
		`rmwtso_http_requests_total{route="/v1/jobs",code="202"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
	// The engine-wide rate counts from the engine's start, so a finished
	// job makes it positive.
	_, rate, _ := strings.Cut(text, "\nrmwtso_units_per_second ")
	rate, _, _ = strings.Cut(rate, "\n")
	if v, err := strconv.ParseFloat(rate, 64); err != nil || v <= 0 {
		t.Fatalf("rmwtso_units_per_second = %q, want a positive rate", rate)
	}

	// Drain with nothing running returns promptly and flushes the shard
	// artifact for the finished plan job.
	start := time.Now()
	srv.Drain()
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("idle drain took %s, want immediate", elapsed)
	}
	artifact := filepath.Join(dir, id+".json")
	shard, err := engine.ReadShardFile(artifact)
	if err != nil {
		t.Fatalf("drain did not flush a readable shard artifact: %v", err)
	}
	if len(shard.Units) != units {
		t.Fatalf("artifact has %d units, want %d", len(shard.Units), units)
	}

	// Draining flips readiness and refuses new work.
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %v / HTTP %d", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if code, _ := submit(t, ts, `{"plan":{"preset":"quick"}}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", code)
	}
}

// readAll drains and closes a response body.
func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestLitmusJobStreamsLive submits a litmus job and follows its SSE
// stream as it runs: one litmus frame per verdict, then done.
func TestLitmusJobStreamsLive(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, doc := submit(t, ts, `{"litmus":{"name":"write-deadlock (Fig. 10)"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, doc)
	}
	id := doc["id"].(string)
	units := int(doc["units"].(float64))
	if units != 3 {
		t.Fatalf("litmus job units = %d, want 3 (one per atomicity type)", units)
	}

	frames := readSSE(t, ts, id)
	if len(frames) != units+1 {
		t.Fatalf("SSE stream has %d frames, want %d verdicts + done", len(frames), units)
	}
	for i, fr := range frames[:units] {
		if fr.event != "litmus" {
			t.Fatalf("frame %d event = %q, want litmus", i, fr.event)
		}
		if fr.data["test"] != "write-deadlock (Fig. 10)" {
			t.Fatalf("frame %d test = %v", i, fr.data["test"])
		}
		if holds, ok := fr.data["holds"].(bool); !ok || holds {
			// The cyclic outcome is forbidden under every type.
			t.Fatalf("frame %d holds = %v, want false", i, fr.data["holds"])
		}
	}
	if frames[units].data["state"] != "done" {
		t.Fatalf("terminal frame state = %v", frames[units].data["state"])
	}

	// A litmus job has no report.
	if code, doc := getJSON(t, ts, "/v1/reports/"+id); code != http.StatusBadRequest {
		t.Fatalf("litmus report: HTTP %d: %v", code, doc)
	}
}

// TestJobEventsResumeAfterLastEventID reconnects to a finished job's
// stream with Last-Event-ID: the server replays only the frames after
// that ID, ending with done, and refuses IDs the job never logged.
func TestJobEventsResumeAfterLastEventID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, doc := submit(t, ts, `{"litmus":{"name":"write-deadlock (Fig. 10)"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, doc)
	}
	id := doc["id"].(string)
	full := readSSE(t, ts, id) // three verdicts + done: ids 0..3

	resumed := readSSEAfter(t, ts, id, "1")
	if len(resumed) != len(full)-2 {
		t.Fatalf("resumed stream has %d frames, want the %d after id 1", len(resumed), len(full)-2)
	}
	for i, fr := range resumed {
		if want := full[i+2]; fr.id != want.id || fr.event != want.event {
			t.Fatalf("resumed frame %d = id %s %s, want id %s %s", i, fr.id, fr.event, want.id, want.event)
		}
	}
	if last := resumed[len(resumed)-1]; last.event != "done" {
		t.Fatalf("resumed stream ends with %q, want done", last.event)
	}

	for _, bad := range []string{"x", "-1", "1.5", strconv.Itoa(len(full))} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Last-Event-ID", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("Last-Event-ID %q: HTTP %d, want 400", bad, resp.StatusCode)
		}
	}
}

// badSubmits are POST /v1/jobs bodies the server must reject with 400.
var badSubmits = []struct {
	name, body string
	want       string // a substring the error must contain, if set
}{
	{"empty", `{}`, ""},
	{"both", `{"plan":{"preset":"quick"},"litmus":{"name":"x"}}`, ""},
	{"unknown field", `{"plan":{"preset":"quick"},"bogus":1}`, ""},
	{"materialize", `{"plan":{"preset":"quick","materialize":true}}`, ""},
	{"bad preset", `{"plan":{"preset":"huge"}}`, ""},
	{"negative cores", `{"plan":{"preset":"quick","cores":-1}}`, ""},
	{"scale past the cycle limit", `{"plan":{"preset":"quick","cores":4,"scale":1e6}}`, ""},
	{"scale overflowing int", `{"plan":{"preset":"quick","cores":4,"scale":1e308}}`, ""},
	{"bad mode", `{"plan":{"preset":"quick"},"mode":"push"}`, ""},
	{"fleet", `{"plan":` + tinyPlanSpec + `,"mode":"fleet"}`, `unknown mode "fleet"`},
	{"litmus fleet", `{"litmus":{"name":"write-deadlock (Fig. 10)"},"mode":"fleet"}`, `unknown mode "fleet"`},
	{"litmus coordinate", `{"litmus":{"name":"write-deadlock (Fig. 10)"},"mode":"coordinate"}`, "litmus jobs are always static"},
	{"litmus over-specified", `{"litmus":{"name":"a","group":"b"}}`, ""},
	{"unknown litmus test", `{"litmus":{"name":"no-such-test"}}`, ""},
	{"fleet with its lease fields", `{"plan":` + tinyPlanSpec + `,"mode":"fleet","lease_ttl":"2s","max_attempts":2}`, "lease_ttl"},
	{"lease ttl", `{"plan":` + tinyPlanSpec + `,"lease_ttl":"1s"}`, `unknown field "lease_ttl"`},
	{"max attempts", `{"plan":` + tinyPlanSpec + `,"mode":"coordinate","max_attempts":2}`, `unknown field "max_attempts"`},
	{"workers", `{"plan":` + tinyPlanSpec + `,"mode":"fleet","workers":1}`, ""},
	{"seeds past the limit", `{"plan":{"preset":"quick","seeds":101}}`, "plan seeds 101 exceeds the limit of 100"},
	{"seeds far past the limit", `{"plan":{"preset":"quick","seeds":4611686018427387904}}`, "plan seeds 4611686018427387904 exceeds the limit of 100"},
	{"bad preset before the seed limit", `{"plan":{"preset":"bogus","seeds":101}}`, `unknown plan preset "bogus"`},
	{"negative cores before the seed limit", `{"plan":{"preset":"quick","cores":-1,"seeds":101}}`, "plan cores must be positive, got -1"},
	{"cores past the limit", `{"plan":{"preset":"quick","cores":1099511627776}}`, "building plan"},
}

// TestSubmitValidation checks the request-shape errors of POST /v1/jobs.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range badSubmits {
		code, doc := submit(t, ts, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d (%v), want 400", tc.name, code, doc["error"])
		} else if msg, _ := doc["error"].(string); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, msg, tc.want)
		}
	}
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/reports/job-999999", "/v1/results/ffffffffffffffff", "/v1/results/by-key/ffff"} {
		if code, _ := getJSON(t, ts, path); code != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", path, code)
		}
	}
}

// TestSubmitRejectsUnwrittenConditionRegister pins that an inline litmus
// program whose condition names a register no load or RMW writes is a
// parse error, a 400 that names the term, and not a job whose term reads
// 0 in every outcome.
func TestSubmitRejectsUnwrittenConditionRegister(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const src = "name: SB\nthread P0:\n  store x, 1\n  r0 = load y\nthread P1:\n  store y, 1\n  r1 = load x\n"
	for cond, want := range map[string]int{
		"exists (P0:r0=0 /\\ P7:r9=0)": http.StatusBadRequest,
		"exists (P0:r0=0 /\\ P1:r1=0)": http.StatusAccepted,
	} {
		body, err := json.Marshal(map[string]any{"litmus": map[string]string{"source": src + cond + "\n"}})
		if err != nil {
			t.Fatal(err)
		}
		code, doc := submit(t, ts, string(body))
		if code != want {
			t.Fatalf("%s: HTTP %d (%v), want %d", cond, code, doc["error"], want)
		}
		if msg, _ := doc["error"].(string); code == http.StatusBadRequest && !strings.Contains(msg, "P7:r9=0") {
			t.Errorf("%s: error %q does not name the term", cond, msg)
		}
	}
}

// TestServeDropsStalledRequest asserts that a client which never finishes
// its request line is disconnected once the read-header timeout passes,
// instead of holding its connection forever.
func TestServeDropsStalledRequest(t *testing.T) {
	orig := readHeaderTimeout
	readHeaderTimeout = 100 * time.Millisecond
	defer func() { readHeaderTimeout = orig }()

	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}
	// Fail instead of hanging if the server never drops the connection.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server may answer 400 before closing; what matters is that the
	// read ends at EOF rather than at the deadline.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled request: %v; want the server to close the connection", err)
	}
}

// stallPlans gives the server an engine whose plan units wait for the
// job context to end, so a plan job stays running until a drain cancels
// it.
func stallPlans(srv *Server) {
	srv.eng = engine.New(engine.WithFaultInjector(func(engine.Unit) error {
		<-srv.jobCtx.Done()
		return srv.jobCtx.Err()
	}))
}

// TestBackpressureAndDrainCancel fills the registry with a plan job that
// never finishes on its own, checks the 429 backpressure, then drains:
// the deadline passes, the straggler is cancelled, the server quiesces.
func TestBackpressureAndDrainCancel(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxJobs: 1, DrainTimeout: 100 * time.Millisecond})
	stallPlans(srv)

	code, doc := submit(t, ts, `{"plan":`+tinyPlanSpec+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("plan submit: HTTP %d: %v", code, doc)
	}
	id := doc["id"].(string)

	// The slot is taken: the next submit is told to back off.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"litmus":{"name":"write-deadlock (Fig. 10)"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 response has no Retry-After header")
	}

	// Still ready before the drain.
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %v / HTTP %d", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Drain: the stalled job never finishes, so the deadline expires and
	// the job is cancelled rather than waited on forever.
	start := time.Now()
	srv.Drain()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain took %s, want roughly the 100ms deadline", elapsed)
	}
	final := waitDone(t, ts, id)
	if final["state"] != "failed" {
		t.Fatalf("cancelled plan job state = %v, want failed", final["state"])
	}
}

// injectClock replaces the server's registry clock with one that reads
// a fixed base time plus the returned offset, so retention tests move
// time instead of sleeping.
func injectClock(srv *Server) *atomic.Int64 {
	base := time.Now()
	var offset atomic.Int64
	srv.now = func() time.Time { return base.Add(time.Duration(offset.Load())) }
	return &offset
}

// TestRetentionEviction verifies the TTL'd registry: finished jobs stay
// queryable until RetainFinished passes, then vanish. The clock is
// injected so nothing sleeps.
func TestRetentionEviction(t *testing.T) {
	srv, ts := newTestServer(t, Config{RetainFinished: time.Minute})
	offset := injectClock(srv)

	code, doc := submit(t, ts, `{"litmus":{"name":"write-deadlock (Fig. 10)"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, doc)
	}
	id := doc["id"].(string)
	waitDone(t, ts, id)

	// Inside the TTL the job is still there.
	offset.Store(int64(30 * time.Second))
	if code, _ := getJSON(t, ts, "/v1/jobs/"+id); code != http.StatusOK {
		t.Fatalf("job gone before its TTL: HTTP %d", code)
	}

	// Past the TTL it is evicted everywhere.
	offset.Store(int64(2 * time.Minute))
	if code, _ := getJSON(t, ts, "/v1/jobs/"+id); code != http.StatusNotFound {
		t.Fatalf("job survived its TTL: HTTP %d", code)
	}
	if _, doc := getJSON(t, ts, "/v1/jobs"); len(doc["jobs"].([]any)) != 0 {
		t.Fatalf("job list still shows evicted jobs: %v", doc["jobs"])
	}
}

// TestResultsExpireWithTheirJob pins that a unit result is served
// exactly while a retained job holds it: two identical plan jobs finish
// 40s apart under a 1-minute TTL; once the first expires the second
// still serves every result route, and once both expire nothing does and
// the registry holds no state at all.
func TestResultsExpireWithTheirJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{RetainFinished: time.Minute})
	offset := injectClock(srv)
	runPlan := func() string {
		t.Helper()
		code, doc := submit(t, ts, `{"plan":`+tinyPlanSpec+`}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %v", code, doc)
		}
		id := doc["id"].(string)
		if final := waitDone(t, ts, id); final["state"] != "done" {
			t.Fatalf("job %s finished in state %v", id, final["state"])
		}
		return id
	}
	first := runPlan()
	offset.Store(int64(40 * time.Second))
	second := runPlan()

	opts := tinyPlanOptions()
	plan, err := engine.DefaultPlanSeeds(opts, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	u := plan.Units()[0]
	digest := u.Key.Digest()
	routes := []string{
		"/v1/results/" + string(u.ID),
		"/v1/results/by-key/" + digest,
		"/v1/results/by-key/" + strings.ToUpper(digest),
	}
	expect := func(path string, want int) map[string]any {
		t.Helper()
		code, doc := getJSON(t, ts, path)
		if code != want {
			t.Fatalf("GET %s: HTTP %d (%v), want %d", path, code, doc, want)
		}
		return doc
	}

	offset.Store(int64(90 * time.Second))
	expect("/v1/jobs/"+first, http.StatusNotFound)
	for _, path := range routes {
		expect(path, http.StatusOK)
	}
	if doc := expect(routes[1], http.StatusOK); doc["unit"] != string(u.ID) || doc["result"] == nil {
		t.Fatalf("by-key lookup = %v, want unit %s with its result", doc, u.ID)
	}
	srv.mu.Lock()
	servedBy := srv.units[u.ID].job.id
	srv.mu.Unlock()
	if servedBy != second {
		t.Fatalf("unit %s is served from %s, want the retained %s", u.ID, servedBy, second)
	}
	// Malformed or unknown digests are plain misses.
	flipped := "0"
	if digest[63] == '0' {
		flipped = "1"
	}
	for _, bad := range []string{digest[:63] + flipped, digest[:2], digest + "00"} {
		expect("/v1/results/by-key/"+bad, http.StatusNotFound)
	}

	offset.Store(int64(3 * time.Minute))
	expect("/v1/jobs/"+second, http.StatusNotFound)
	for _, path := range routes {
		expect(path, http.StatusNotFound)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.jobs) != 0 || len(srv.finished) != 0 || len(srv.units) != 0 || len(srv.plans) != 0 {
		t.Fatalf("registry keeps %d jobs, %d queued for expiry, %d indexed units and %d plans after every job expired",
			len(srv.jobs), len(srv.finished), len(srv.units), len(srv.plans))
	}
}

// TestRegistryUnderConcurrentJobs finishes jobs concurrently while
// other clients read both result routes and the job list, with a TTL so
// short that every request prunes: finishJob fills the unit index and
// the expiry queue while requests empty them. Run under -race. Once
// every job has expired, nothing may be left behind.
func TestRegistryUnderConcurrentJobs(t *testing.T) {
	srv, ts := newTestServer(t, Config{RetainFinished: time.Nanosecond, DrainTimeout: 2 * time.Minute})
	opts := tinyPlanOptions()
	plan, err := engine.DefaultPlanSeeds(opts, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	u := plan.Units()[0]
	paths := []string{"/v1/results/" + string(u.ID), "/v1/results/by-key/" + u.Key.Digest(), "/v1/jobs"}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				for _, path := range paths {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
						t.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
					}
				}
			}
		}()
	}
	for _, body := range []string{
		`{"plan":` + tinyPlanSpec + `}`,
		`{"plan":` + tinyPlanSpec + `}`,
		`{"plan":` + tinyPlanSpec + `,"mode":"coordinate"}`,
		`{"litmus":{"name":"write-deadlock (Fig. 10)"}}`,
	} {
		if code, doc := submit(t, ts, body); code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d: %v", body, code, doc)
		}
	}
	srv.Drain() // returns once every job has finished
	close(stop)
	readers.Wait()

	if code, doc := getJSON(t, ts, "/v1/jobs"); code != http.StatusOK || len(doc["jobs"].([]any)) != 0 {
		t.Fatalf("GET /v1/jobs after every job expired: HTTP %d: %v", code, doc)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.jobs) != 0 || len(srv.finished) != 0 || len(srv.units) != 0 || len(srv.plans) != 0 {
		t.Fatalf("registry keeps %d jobs, %d queued for expiry, %d indexed units and %d plans after every job expired",
			len(srv.jobs), len(srv.finished), len(srv.units), len(srv.plans))
	}
}

// TestListJobsInSubmitOrder lists the registry in submit order, which
// differs from finish order here because the second job (a stalled plan
// job) never finishes, and drops the first job once it expires.
func TestListJobsInSubmitOrder(t *testing.T) {
	srv, ts := newTestServer(t, Config{RetainFinished: time.Minute, DrainTimeout: 10 * time.Millisecond})
	stallPlans(srv)
	t.Cleanup(srv.Drain) // cancels the stalled job
	offset := injectClock(srv)
	start := func(body string) string {
		t.Helper()
		code, doc := submit(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %v", code, doc)
		}
		return doc["id"].(string)
	}
	const litmus = `{"litmus":{"name":"write-deadlock (Fig. 10)"}}`
	first := start(litmus)
	waitDone(t, ts, first)
	stalled := start(`{"plan":` + tinyPlanSpec + `}`)
	offset.Store(int64(40 * time.Second))
	third := start(litmus)
	waitDone(t, ts, third)

	listed := func() []string {
		t.Helper()
		code, doc := getJSON(t, ts, "/v1/jobs")
		if code != http.StatusOK {
			t.Fatalf("list: HTTP %d: %v", code, doc)
		}
		var ids []string
		for _, j := range doc["jobs"].([]any) {
			ids = append(ids, j.(map[string]any)["id"].(string))
		}
		return ids
	}
	if got, want := listed(), []string{first, stalled, third}; !slices.Equal(got, want) {
		t.Fatalf("GET /v1/jobs lists %v, want %v", got, want)
	}
	offset.Store(int64(90 * time.Second))
	if got, want := listed(), []string{stalled, third}; !slices.Equal(got, want) {
		t.Fatalf("GET /v1/jobs after the first job expired lists %v, want %v", got, want)
	}
}

// TestFleetSurfaceIsGone pins what is left of the removed HTTP fleet
// beyond the rejected submits in badSubmits: no /v1/coord route answers
// for an existing job, and neither its status nor /metrics carries a
// coordinator link, a lease gauge or a retry counter.
func TestFleetSurfaceIsGone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, doc := submit(t, ts, `{"plan":`+tinyPlanSpec+`,"mode":"coordinate"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, doc)
	}
	id := doc["id"].(string)
	final := waitDone(t, ts, id)
	if _, ok := final["links"].(map[string]any)["coordinator"]; ok {
		t.Errorf("status links a coordinator: %v", final["links"])
	}
	for _, key := range []string{"inflight_leases", "retries"} {
		if _, ok := final["metrics"].(map[string]any)[key]; ok {
			t.Errorf("status metrics carry %q: %v", key, final["metrics"])
		}
	}
	resp, err := http.Get(ts.URL + "/v1/coord/" + id + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/coord/%s/x: HTTP %d, want 404", id, resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := readAll(resp)
	for _, series := range []string{"rmwtso_inflight_leases", "rmwtso_retries_total", "rmwtso_expired_leases_total"} {
		if bytes.Contains(text, []byte(series)) {
			t.Errorf("/metrics still exposes %s", series)
		}
	}
}

// TestDeadLetterFrame pins the bytes of a dead-letter event on a job's
// SSE stream: on a one-worker pool the poisoned first unit is frame 0,
// after its one attempt, and its job fails with the rest of the units
// streamed as sim frames.
func TestDeadLetterFrame(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	opts := tinyPlanOptions()
	plan, err := engine.DefaultPlanSeeds(opts, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := plan.Units()[0].ID
	srv.eng = engine.New(engine.WithParallelism(1), engine.WithFaultInjector(func(u engine.Unit) error {
		if u.ID == poisoned {
			return errors.New("injected poison")
		}
		return nil
	}))
	code, doc := submit(t, ts, `{"plan":`+tinyPlanSpec+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, doc)
	}
	id := doc["id"].(string)
	if final := waitDone(t, ts, id); final["state"] != "failed" {
		t.Fatalf("poisoned job state = %v, want failed", final["state"])
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := readAll(resp)
	want := `id: 0
event: coord
data: {"seq":0,"kind":"coord","unit":"` + string(poisoned) + `","coord":"dead-letter","attempt":1,"reason":"injected poison"}

id: 1
event: sim
`
	if !strings.HasPrefix(string(stream), want) {
		t.Fatalf("events stream starts\n%s\nwant\n%s", stream[:min(len(want), len(stream))], want)
	}
	if n := strings.Count(string(stream), "event: sim\n"); n != plan.Len()-1 {
		t.Fatalf("stream has %d sim frames, want %d", n, plan.Len()-1)
	}
}

// TestCoordinateModeRunsStatic pins the "coordinate" mode alias: the job
// runs on the static pool like a static job of the same spec, streams
// one sim frame per unit, and its JSON report equals the static job's
// plus a coordination section that says so.
func TestCoordinateModeRunsStatic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reports := map[string]map[string]json.RawMessage{}
	for _, mode := range []string{"static", "coordinate"} {
		code, doc := submit(t, ts, `{"plan":`+tinyPlanSpec+`,"mode":"`+mode+`"}`)
		if code != http.StatusAccepted {
			t.Fatalf("%s submit: HTTP %d: %v", mode, code, doc)
		}
		id := doc["id"].(string)
		final := waitDone(t, ts, id)
		if final["state"] != "done" {
			t.Fatalf("%s job state = %v (error %v)", mode, final["state"], final["error"])
		}
		if frames := readSSE(t, ts, id); len(frames) != int(final["units"].(float64))+1 {
			t.Fatalf("%s job streamed %d frames for %v units", mode, len(frames), final["units"])
		}
		resp, err := http.Get(ts.URL + "/v1/reports/" + id + "?format=json")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s report: HTTP %d: %s", mode, resp.StatusCode, body)
		}
		var sections map[string]json.RawMessage
		if err := json.Unmarshal(body, &sections); err != nil {
			t.Fatal(err)
		}
		reports[mode] = sections
	}

	static, coord := reports["static"], reports["coordinate"]
	if _, ok := static["coordination"]; ok {
		t.Fatal("static report carries a coordination section")
	}
	var section map[string]any
	if err := json.Unmarshal(coord["coordination"], &section); err != nil {
		t.Fatalf("coordinate report's coordination section: %v", err)
	}
	if want := map[string]any{"mode": "in-process"}; !reflect.DeepEqual(section, want) {
		t.Fatalf("coordination section %v, want %v", section, want)
	}
	delete(coord, "coordination")
	if len(coord) != len(static) {
		t.Fatalf("coordinate report has sections %d, static %d", len(coord), len(static))
	}
	for k, v := range static {
		if !bytes.Equal(coord[k], v) {
			t.Errorf("section %q differs between the coordinate and static reports", k)
		}
	}
}

// retainFinished registers n finished litmus jobs straight into the
// registry, admitted like a submit and finished through finishJob, so
// the registry benchmarks need not run n jobs.
func retainFinished(s *Server, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		s.mu.Lock()
		s.nextID++
		j := &job{id: fmt.Sprintf("job-%06d", s.nextID), seq: s.nextID, kind: "litmus", mode: "static",
			created: s.now(), events: newEventLog(0), state: "running"}
		s.jobs[j.id] = j
		s.running++
		s.mu.Unlock()
		s.finishJob(j, &engine.JobResult{}, nil)
		ids[i] = j.id
	}
	return ids
}

// BenchmarkLookupJob measures one job lookup, the registry step of every
// per-job route, with 1k and 10k finished jobs retained.
func BenchmarkLookupJob(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("retained=%d", n), func(b *testing.B) {
			s, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			ids := retainFinished(s, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.lookupJob(ids[i%n]) == nil {
					b.Fatal("retained job not found")
				}
			}
		})
	}
}

// BenchmarkListJobs measures GET /v1/jobs with 5k finished jobs
// retained.
func BenchmarkListJobs(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	retainFinished(s, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("GET /v1/jobs: HTTP %d", rec.Code)
		}
	}
}
