package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/simcache"
)

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// tinySpellings are bodies that resolve to the sweep of tinyPlanSpec:
// the same options and seed list, written another way.
var tinySpellings = []string{
	`{"plan":` + tinyPlanSpec + `}`,
	`{"plan":{"preset":"quick","cores":4,"scale":0.05,"seed":20130601,"seeds":1}}`,
	`{"plan":{"cores":4,"scale":0.05},"mode":"coordinate"}`,
}

// jobPlan returns the plan a registered job runs.
func jobPlan(t *testing.T, srv *Server, id string) *engine.Plan {
	t.Helper()
	j := srv.lookupJob(id)
	if j == nil {
		t.Fatalf("job %s is not registered", id)
	}
	return j.plan
}

// registeredPlans returns the plan registry's size.
func registeredPlans(srv *Server) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.plans)
}

// TestJobsOfOneSpecShareAPlan submits the tiny sweep in three spellings
// and once under another seed: the three jobs run one plan and report
// one fingerprint, and the other seed's job runs a plan of its own.
func TestJobsOfOneSpecShareAPlan(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	var ids []string
	for _, body := range append(tinySpellings, `{"plan":{"preset":"quick","cores":4,"scale":0.05,"seed":7}}`) {
		code, doc := submit(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d: %v", body, code, doc)
		}
		id := doc["id"].(string)
		if final := waitDone(t, ts, id); final["state"] != "done" {
			t.Fatalf("job %s finished in state %v", id, final["state"])
		}
		ids = append(ids, id)
	}
	shared := jobPlan(t, srv, ids[0])
	for _, id := range ids[1:3] {
		if p := jobPlan(t, srv, id); p != shared {
			t.Errorf("job %s runs its own plan, want the one job %s holds", id, ids[0])
		}
		_, a := getJSON(t, ts, "/v1/jobs/"+ids[0])
		_, b := getJSON(t, ts, "/v1/jobs/"+id)
		if a["plan_fingerprint"] != b["plan_fingerprint"] {
			t.Errorf("job %s reports fingerprint %v, want %v", id, b["plan_fingerprint"], a["plan_fingerprint"])
		}
	}
	if p := jobPlan(t, srv, ids[3]); p == shared || p.Fingerprint() == shared.Fingerprint() {
		t.Errorf("the seed-7 job shares the tiny sweep's plan")
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.plans) != 2 {
		t.Fatalf("plan registry holds %d plans, want 2", len(srv.plans))
	}
	for _, e := range srv.plans {
		want := 1
		if e.plan == shared {
			want = 3
		}
		if e.jobs != want {
			t.Errorf("plan %.16s is held by %d jobs, want %d", e.plan.Fingerprint(), e.jobs, want)
		}
	}
}

// TestRacingFirstSubmitsShareOnePlan builds a sweep's plan twice, as two
// first submits racing past an empty registry do, and registers both:
// both jobs run the plan registered first.
func TestRacingFirstSubmitsShareOnePlan(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := parseSubmit([]byte(tinySpellings[0]))
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.planFor(sub)
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.planFor(sub)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("planFor found a plan in an empty registry")
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if got := srv.holdPlanLocked(sub.planKey(), a); got != a {
		t.Fatal("the first registration did not keep its own plan")
	}
	if got := srv.holdPlanLocked(sub.planKey(), b); got != a {
		t.Fatal("the second registration kept its own build, not the registered plan")
	}
	if e := srv.plans[sub.planKey()]; len(srv.plans) != 1 || e.plan != a || e.jobs != 2 {
		t.Fatalf("registry holds %d plans, the first held by %d jobs; want 1 plan held by 2", len(srv.plans), e.jobs)
	}
}

// TestPlansExpireWithTheirLastJob pins a plan's lifetime on the injected
// clock: two jobs of one sweep finish 40s apart under a 1-minute TTL, and
// the plan stays registered while either is retained and leaves with the
// second. A submit refused with 429 leaves no entry behind.
func TestPlansExpireWithTheirLastJob(t *testing.T) {
	srv, ts := newTestServer(t, Config{RetainFinished: time.Minute})
	offset := injectClock(srv)
	run := func(body string) string {
		t.Helper()
		code, doc := submit(t, ts, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %v", code, doc)
		}
		id := doc["id"].(string)
		if final := waitDone(t, ts, id); final["state"] != "done" {
			t.Fatalf("job %s finished in state %v", id, final["state"])
		}
		return id
	}
	first := run(tinySpellings[0])
	offset.Store(int64(40 * time.Second))
	second := run(tinySpellings[1])
	plan := jobPlan(t, srv, second)

	offset.Store(int64(90 * time.Second))
	if code, _ := getJSON(t, ts, "/v1/jobs/"+first); code != http.StatusNotFound {
		t.Fatalf("first job survived its TTL: HTTP %d", code)
	}
	if n := registeredPlans(srv); n != 1 || jobPlan(t, srv, second) != plan {
		t.Fatalf("after the first job expired the registry holds %d plans, want the second job's", n)
	}
	offset.Store(int64(3 * time.Minute))
	if code, _ := getJSON(t, ts, "/v1/jobs/"+second); code != http.StatusNotFound {
		t.Fatalf("second job survived its TTL: HTTP %d", code)
	}
	if n := registeredPlans(srv); n != 0 {
		t.Fatalf("registry holds %d plans after every job that held one expired", n)
	}

	// One stalled job fills the only slot; a submit of another sweep is
	// refused and registers nothing.
	busy, busyTS := newTestServer(t, Config{MaxJobs: 1, DrainTimeout: 10 * time.Millisecond})
	stallPlans(busy)
	t.Cleanup(busy.Drain)
	if code, doc := submit(t, busyTS, tinySpellings[0]); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, doc)
	}
	if code, doc := submit(t, busyTS, `{"plan":{"preset":"quick","cores":4,"scale":0.05,"seed":7}}`); code != http.StatusTooManyRequests {
		t.Fatalf("submit past the limit: HTTP %d: %v", code, doc)
	}
	if n := registeredPlans(busy); n != 1 {
		t.Fatalf("registry holds %d plans after a refused submit, want the running job's 1", n)
	}
}

// TestSharedPlansUnderConcurrentJobs submits the tiny sweep in every
// spelling, and another sweep, from several clients at once while they
// replay each job's events, with a TTL so short that every request
// prunes. Run under -race. Once every job has expired, no plan is left.
func TestSharedPlansUnderConcurrentJobs(t *testing.T) {
	cache, err := simcache.Open()
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{Cache: cache, MaxJobs: 64, RetainFinished: time.Nanosecond, DrainTimeout: 2 * time.Minute})
	bodies := append(tinySpellings[:len(tinySpellings):len(tinySpellings)], `{"plan":{"preset":"quick","cores":4,"scale":0.05,"seed":7}}`)
	var clients sync.WaitGroup
	for c := range 4 {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := range 4 {
				body := bodies[(c+i)%len(bodies)]
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var doc struct {
					ID string `json:"id"`
				}
				err = json.NewDecoder(resp.Body).Decode(&doc)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusAccepted {
					t.Errorf("submit %s: HTTP %d, %v", body, resp.StatusCode, err)
					return
				}
				// The replay follows the job live; a job already pruned is a 404.
				resp, err = http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events")
				if err != nil {
					t.Error(err)
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound) {
					t.Errorf("events of %s: HTTP %d, %v", doc.ID, resp.StatusCode, err)
				}
			}
		}()
	}
	clients.Wait()
	srv.Drain()
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

// TestRetainedJobFootprint bounds what a retained plan job keeps alive:
// over 200 identical tiny-plan jobs on a warm cache, the heap after GC
// grows by at most 8 KiB per job. A job shares its plan with the others
// and logs the engine's records, so it keeps little beyond its own unit
// results.
func TestRetainedJobFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are noise under the race detector")
	}
	cache, err := simcache.Open()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	run := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(tinySpellings[0])))
		var doc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || rec.Code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %s", rec.Code, rec.Body)
		}
		// The job's event log closes when the job finishes.
		j := srv.lookupJob(doc.ID)
		for _, _, wake := j.events.from(0); wake != nil; _, _, wake = j.events.from(0) {
			<-wake
		}
		if state, _, _, _ := j.status(); state != "done" {
			t.Fatalf("job %s finished in state %s", doc.ID, state)
		}
	}
	run() // fills the cache: the only simulated job
	const jobs = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range jobs {
		run()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perJob := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / jobs
	t.Logf("retained heap per job: %.1f KiB", float64(perJob)/1024)
	if perJob > 8<<10 {
		t.Fatalf("each retained job keeps %.1f KiB of heap, want at most 8 KiB", float64(perJob)/1024)
	}
	runtime.KeepAlive(srv)
}
