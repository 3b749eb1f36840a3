package simulation

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

// A scenario scripts real processes against real artifacts under
// injected faults and asserts the sweep either completes byte-identical
// to an unfaulted run or fails loudly naming the lost units.
type scenario struct {
	name string
	run  func(t *testing.T)
}

var scenarios = []scenario{
	{"worker_killed_mid_artifact_write", scenarioKillMidWrite},
	{"merge_racing_running_shard", scenarioMergeRace},
	{"concurrent_sweeps_shared_cache", scenarioSharedCache},
	{"disk_full_mid_sweep", scenarioDiskFull},
	{"coordinator_fleet_composed_faults", scenarioFleet},
	{"cache_bitflip_storm_warm_rerun", scenarioBitflipStorm},
	{"retry_exhaustion_partial_report", scenarioRetryExhaustion},
	{"worker_reconnect_after_coordinator_restart", scenarioCoordinatorRestart},
}

// TestScenarios runs the whole matrix. Each scenario is an independent
// subtest, so one can be replayed alone:
//
//	go test ./simulation -run 'TestScenarios/<name>$' -chaos.seed=N
func TestScenarios(t *testing.T) {
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("replay: go test ./simulation -run 'TestScenarios/%s$' -chaos.seed=%d", sc.name, *chaosSeed)
				}
			})
			sc.run(t)
		})
	}
}

// TestScenarioSeedSweep reruns the most seed-sensitive scenarios under
// additional derived seeds — the scheduled long-mode CI job's extra
// coverage. Skipped in -short mode, where the PR gate runs the matrix
// once under the default (or explicitly replayed) seed.
func TestScenarioSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is long-mode only; run without -short")
	}
	base := *chaosSeed
	defer func() { *chaosSeed = base }()
	sensitive := map[string]bool{
		"worker_killed_mid_artifact_write":  true,
		"cache_bitflip_storm_warm_rerun":    true,
		"coordinator_fleet_composed_faults": true,
	}
	for _, delta := range []int64{1, 2, 3} {
		seed := base + delta
		for _, sc := range scenarios {
			if !sensitive[sc.name] {
				continue
			}
			t.Run(fmt.Sprintf("seed%d/%s", seed, sc.name), func(t *testing.T) {
				*chaosSeed = seed
				t.Cleanup(func() {
					*chaosSeed = base
					if t.Failed() {
						t.Logf("replay: go test ./simulation -run 'TestScenarios/%s$' -chaos.seed=%d", sc.name, seed)
					}
				})
				sc.run(t)
			})
		}
	}
}

// scenarioKillMidWrite SIGKILLs a shard worker 100 bytes into its
// artifact write. The torn prefix must stay an orphaned temp file — the
// artifact is never published — the merge without that shard must name
// exactly the lost units, and a clean rerun must merge byte-identical
// to the unsharded reference.
func scenarioKillMidWrite(t *testing.T) {
	flags := quickFlags()
	dir := scenarioDir(t)
	shardFile := func(i int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d.json", i)) }

	spec := &chaos.Spec{Seed: *chaosSeed, Rules: []chaos.Rule{
		{Hook: chaos.HookWrite, Kind: chaos.KindKill, Match: "shard-0.json", At: 100},
	}}
	res := run(t, spec, append(quickFlags(), "-shard", "0/3", "-out", shardFile(0))...)
	if res.Code != chaos.KillExitCode {
		t.Fatalf("killed shard worker exited %d, want %d\nstderr:\n%s", res.Code, chaos.KillExitCode, clip(res.Stderr))
	}
	if !strings.Contains(res.Stderr, "chaos armed") || !strings.Contains(res.Stderr, "injected kill") {
		t.Fatalf("kill not visible on stderr:\n%s", clip(res.Stderr))
	}
	if _, err := os.Stat(shardFile(0)); !os.IsNotExist(err) {
		t.Fatalf("torn artifact was published (stat err %v)", err)
	}
	orphans := tempPrefixFiles(t, dir)
	if len(orphans) != 1 {
		t.Fatalf("orphan temps %v, want exactly the torn one", orphans)
	}
	if fi, err := os.Stat(orphans[0]); err != nil || fi.Size() != 100 {
		t.Fatalf("torn temp holds %d bytes (err %v), want the 100-byte kill prefix", fi.Size(), err)
	}

	for i := 1; i <= 2; i++ {
		if res := run(t, nil, append(quickFlags(), "-shard", fmt.Sprintf("%d/3", i), "-out", shardFile(i))...); res.Code != 0 {
			t.Fatalf("clean shard %d failed (%d):\n%s", i, res.Code, clip(res.Stderr))
		}
	}

	// Merging without the killed shard must fail loudly, naming exactly
	// the lost units (shard 0 = every third plan unit).
	units := planUnits(t, flags)
	var lost []string
	for i, id := range units {
		if i%3 == 0 {
			lost = append(lost, id)
		}
	}
	sort.Strings(lost)
	mres := run(t, nil, append(quickFlags(), "-merge", "-format", "ascii", shardFile(1), shardFile(2))...)
	if mres.Code == 0 {
		t.Fatal("merge without the killed shard succeeded")
	}
	want := fmt.Sprintf("%d of %d plan units missing", len(lost), len(units))
	if !strings.Contains(mres.Stderr, want) {
		t.Fatalf("merge failure does not carry %q:\n%s", want, clip(mres.Stderr))
	}
	for i, id := range lost {
		if i >= 8 {
			break // the message bounds the listing at 8 units
		}
		if !strings.Contains(mres.Stderr, id) {
			t.Errorf("lost unit %s not named in the merge failure:\n%s", id, clip(mres.Stderr))
		}
	}

	// Recovery: rerun the shard cleanly, merge, compare byte-identical.
	if res := run(t, nil, append(quickFlags(), "-shard", "0/3", "-out", shardFile(0))...); res.Code != 0 {
		t.Fatalf("shard 0 rerun failed (%d):\n%s", res.Code, clip(res.Stderr))
	}
	merged := run(t, nil, append(quickFlags(), "-merge", "-format", "ascii", shardFile(0), shardFile(1), shardFile(2))...)
	if merged.Code != 0 {
		t.Fatalf("recovered merge failed (%d):\n%s", merged.Code, clip(merged.Stderr))
	}
	if merged.Stdout != reference(t, flags, "ascii") {
		t.Fatal("recovered merge is not byte-identical to the unsharded reference")
	}
}

// scenarioMergeRace merges in a loop while a delayed shard worker is
// still writing its artifact. Until publication every merge must fail
// loudly over the absent shard — never read a torn file — and the
// moment it succeeds the output must be byte-identical.
func scenarioMergeRace(t *testing.T) {
	flags := quickFlags()
	dir := scenarioDir(t)
	shardFile := func(i int) string { return filepath.Join(dir, fmt.Sprintf("shard-%d.json", i)) }
	for i := 1; i <= 2; i++ {
		if res := run(t, nil, append(quickFlags(), "-shard", fmt.Sprintf("%d/3", i), "-out", shardFile(i))...); res.Code != 0 {
			t.Fatalf("shard %d failed (%d):\n%s", i, res.Code, clip(res.Stderr))
		}
	}

	spec := &chaos.Spec{Seed: *chaosSeed, Rules: []chaos.Rule{
		{Hook: chaos.HookWrite, Kind: chaos.KindDelay, Match: "shard-0.json", DelayMS: 1200},
	}}
	writer := start(t, spec, append(quickFlags(), "-shard", "0/3", "-out", shardFile(0))...)

	ref := reference(t, flags, "ascii")
	mergeArgs := append(quickFlags(), "-merge", "-format", "ascii", shardFile(0), shardFile(1), shardFile(2))
	successes, failures := 0, 0
	for done := false; !done; {
		select {
		case err := <-writer.done:
			writer.done <- err
			done = true
		default:
		}
		m := run(t, nil, mergeArgs...)
		if m.Code == 0 {
			successes++
			if m.Stdout != ref {
				t.Fatal("racing merge succeeded with output differing from the reference")
			}
		} else {
			failures++
			if !strings.Contains(m.Stderr, "shard-0.json") {
				t.Fatalf("racing merge failed without naming the absent shard:\n%s", clip(m.Stderr))
			}
			for _, poison := range []string{"checksum", "corrupt", "unexpected end"} {
				if strings.Contains(m.Stderr, poison) {
					t.Fatalf("racing merge observed a torn artifact (%q):\n%s", poison, clip(m.Stderr))
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if w := writer.wait(t); w.Code != 0 {
		t.Fatalf("delayed shard worker failed (%d):\n%s", w.Code, clip(w.Stderr))
	}
	if failures == 0 {
		t.Fatal("the race never observed the shard mid-write; the delay did not hold the artifact back")
	}
	final := run(t, nil, mergeArgs...)
	if final.Code != 0 || final.Stdout != ref {
		t.Fatalf("final merge: code %d, identical %v", final.Code, final.Stdout == ref)
	}
}

// scenarioSharedCache runs two full sweeps concurrently against one
// cache directory — one of them with delayed cache writes to widen the
// race window. Both must produce byte-identical reports: concurrent
// atomic publication may waste work, never corrupt results.
func scenarioSharedCache(t *testing.T) {
	flags := quickFlags()
	cacheDir := filepath.Join(scenarioDir(t), "cache")
	args := append(quickFlags(), "-format", "json", "-cache-dir", cacheDir)

	slowWrites := &chaos.Spec{Seed: *chaosSeed, Rules: []chaos.Rule{
		{Hook: chaos.HookWrite, Kind: chaos.KindDelay, Match: cacheDir, DelayMS: 10, Count: 20},
	}}
	pA := start(t, nil, args...)
	pB := start(t, slowWrites, args...)
	ra, rb := pA.wait(t), pB.wait(t)
	if ra.Code != 0 || rb.Code != 0 {
		t.Fatalf("concurrent sweeps exited %d and %d\nA stderr:\n%s\nB stderr:\n%s",
			ra.Code, rb.Code, clip(ra.Stderr), clip(rb.Stderr))
	}
	ref := reference(t, flags, "json")
	if ra.Stdout != ref {
		t.Fatal("sweep A diverged from the reference")
	}
	if rb.Stdout != ref {
		t.Fatal("sweep B (delayed cache writes) diverged from the reference")
	}
}

// scenarioDiskFull fills the disk five cache stores into a sweep. The
// sweep must complete with byte-identical tables — persistence is
// best-effort — while the stderr cache line confesses the store errors.
func scenarioDiskFull(t *testing.T) {
	flags := quickFlags()
	cacheDir := filepath.Join(scenarioDir(t), "cache")
	args := append(quickFlags(), "-format", "json", "-cache-dir", cacheDir)

	spec := &chaos.Spec{Seed: *chaosSeed, Rules: []chaos.Rule{
		{Hook: chaos.HookWrite, Kind: chaos.KindENOSPC, Match: cacheDir, After: 5},
	}}
	res := run(t, spec, args...)
	if res.Code != 0 {
		t.Fatalf("sweep on a full disk exited %d:\n%s", res.Code, clip(res.Stderr))
	}
	if res.Stdout != reference(t, flags, "json") {
		t.Fatal("full-disk sweep diverged from the reference")
	}
	if !strings.Contains(res.Stderr, "store errors") {
		t.Fatalf("store errors not confessed on stderr:\n%s", clip(res.Stderr))
	}
	// With the disk back, the partially warm cache must still serve a
	// byte-identical rerun.
	rerun := run(t, nil, args...)
	if rerun.Code != 0 || rerun.Stdout != reference(t, flags, "json") {
		t.Fatalf("post-recovery rerun: code %d, identical %v", rerun.Code, rerun.Stdout == reference(t, flags, "json"))
	}
}

// scenarioFleet is the composed-fault centerpiece: an HTTP coordinator
// fleet suffering a worker crash, a torn ack, chaos-killed lease polls
// and delayed heartbeats, all at once. The surviving workers must drain
// the queue and the assembled report must match the static reference in
// every result table.
func scenarioFleet(t *testing.T) {
	flags := fleetFlags()
	addr := pickPort(t)
	url := "http://" + addr

	srv := start(t, nil, append(fleetFlags(),
		"-serve-coordinator", addr, "-lease-ttl", "150ms", "-max-attempts", "10", "-format", "json")...)
	waitListening(t, addr, srv)

	// Every worker passes the same -lease-ttl so its heartbeat interval
	// (TTL/3 = 50ms) keeps leases on long units alive; without it the
	// default 5s interval never beats and long units churn through expiry.
	workerArgs := func(name string) []string {
		return append(fleetFlags(), "-worker", url, "-worker-name", name, "-lease-ttl", "150ms")
	}

	// Fault 1: a worker crashes after one unit, abandoning its lease.
	crashy := run(t, nil, append(workerArgs("crashy"), "-crash-after", "1")...)
	if crashy.Code != 3 {
		t.Fatalf("crashing worker exited %d, want 3\nstderr:\n%s", crashy.Code, clip(crashy.Stderr))
	}

	// Fault 2: a worker's first ack is torn in transit after
	// checksumming; the coordinator must refuse it and the worker's exit
	// must be loud. The unit comes back through lease expiry.
	tornSpec := &chaos.Spec{Seed: *chaosSeed, Rules: []chaos.Rule{
		{Hook: chaos.HookAck, Kind: chaos.KindFlip, Match: "torn", Count: 1},
	}}
	torn := run(t, tornSpec, workerArgs("torn-worker")...)
	if torn.Code == 0 {
		t.Fatalf("torn-ack worker drained cleanly; the flip did not bite:\n%s", clip(torn.Stderr))
	}
	if !strings.Contains(torn.Stderr, "checksum") {
		t.Fatalf("torn ack not refused via the checksum:\n%s", clip(torn.Stderr))
	}

	// Faults 3+4 ride along with the recovery fleet: one worker whose
	// heartbeats stall past the lease TTL (losing leases mid-execution,
	// which it must survive), one whose lease polls are randomly fatal.
	slowSpec := &chaos.Spec{Seed: *chaosSeed, Rules: []chaos.Rule{
		{Hook: chaos.HookHeartbeat, Kind: chaos.KindDelay, Match: "slow", DelayMS: 400, Count: 2},
	}}
	slow := start(t, slowSpec, workerArgs("slow-beat")...)
	time.Sleep(100 * time.Millisecond) // let it lease before the steady worker drains
	flakySpec := &chaos.Spec{Seed: *chaosSeed, Rules: []chaos.Rule{
		{Hook: chaos.HookLease, Kind: chaos.KindKill, Match: "flaky", Prob: 0.4},
	}}
	flaky := start(t, flakySpec, workerArgs("flaky")...)
	steady := start(t, nil, workerArgs("steady")...)

	sres := srv.wait(t)
	if sres.Code != 0 {
		t.Fatalf("coordinator exited %d:\n%s", sres.Code, clip(sres.Stderr))
	}
	if r := slow.wait(t); r.Code != 0 {
		t.Fatalf("slow-heartbeat worker exited %d, want survival:\n%s", r.Code, clip(r.Stderr))
	} else if !strings.Contains(r.Stderr, "injected delay") {
		t.Fatalf("heartbeat delay never fired on the slow worker:\n%s", clip(r.Stderr))
	}
	if r := flaky.wait(t); r.Code != 0 && r.Code != chaos.KillExitCode {
		t.Fatalf("flaky worker exited %d, want 0 or %d:\n%s", r.Code, chaos.KillExitCode, clip(r.Stderr))
	}
	if r := steady.wait(t); r.Code != 0 {
		t.Fatalf("steady worker exited %d:\n%s", r.Code, clip(r.Stderr))
	}

	coord := coordination(t, sres.Stdout)
	if coord["mode"] != "http" {
		t.Fatalf("coordination mode %v, want http", coord["mode"])
	}
	if expired, _ := coord["expired"].(float64); expired < 2 {
		t.Fatalf("expired leases %v, want >= 2 (the crash and the torn ack)", coord["expired"])
	}
	if dl := deadLetterUnits(t, sres.Stdout); len(dl) != 0 {
		t.Fatalf("dead letters %v in a recoverable-fault fleet", dl)
	}
	workers := map[string]bool{}
	if ws, ok := coord["workers"].([]any); ok {
		for _, w := range ws {
			if m, ok := w.(map[string]any); ok {
				workers[fmt.Sprint(m["worker"])] = true
			}
		}
	}
	for _, name := range []string{"crashy", "torn-worker", "slow-beat", "steady"} {
		if !workers[name] {
			t.Errorf("worker %s missing from the coordination section (%v)", name, workers)
		}
	}
	if got, want := jsonWithoutCoordination(t, sres.Stdout), jsonWithoutCoordination(t, reference(t, flags, "json")); got != want {
		t.Fatal("fleet report diverged from the static reference outside the coordination section")
	}
}

// scenarioBitflipStorm corrupts cache entries on disk and in flight
// during a warm rerun. Every flip must be detected by the entry checks
// and degrade to a recomputation — the report stays byte-identical —
// and a further rerun must find the cache healed.
func scenarioBitflipStorm(t *testing.T) {
	flags := quickFlags()
	cacheDir := filepath.Join(scenarioDir(t), "cache")
	args := append(quickFlags(), "-format", "json", "-cache-dir", cacheDir)

	cold := run(t, nil, args...)
	if cold.Code != 0 || cold.Stdout != reference(t, flags, "json") {
		t.Fatalf("cold run: code %d, identical %v", cold.Code, cold.Stdout == reference(t, flags, "json"))
	}

	// Storm half 1: the harness flips one bit in three entries at rest.
	entries, err := filepath.Glob(filepath.Join(cacheDir, "*.bin"))
	if err != nil || len(entries) < 4 {
		t.Fatalf("cache entries %d (err %v), want enough to corrupt", len(entries), err)
	}
	sort.Strings(entries)
	rng := harnessRand(0x5106)
	for _, i := range rng.Perm(len(entries))[:3] {
		data, err := os.ReadFile(entries[i])
		if err != nil {
			t.Fatal(err)
		}
		pos := rng.Intn(len(data) * 8)
		data[pos/8] ^= 1 << (pos % 8)
		if err := os.WriteFile(entries[i], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Storm half 2: two more reads are flipped in flight.
	spec := &chaos.Spec{Seed: *chaosSeed, Rules: []chaos.Rule{
		{Hook: chaos.HookCacheRead, Kind: chaos.KindFlip, After: 3, Count: 2},
	}}
	warm := run(t, spec, args...)
	if warm.Code != 0 {
		t.Fatalf("warm rerun under the storm exited %d:\n%s", warm.Code, clip(warm.Stderr))
	}
	if warm.Stdout != reference(t, flags, "json") {
		t.Fatal("bit-flip storm leaked into the report")
	}
	if n := corruptCount(t, warm.Stderr); n < 3 {
		t.Fatalf("cache line reports %d corrupt entries, want >= 3:\n%s", n, clip(warm.Stderr))
	}

	// The storm's casualties were deleted and re-stored: a clean rerun
	// must be fully warm again.
	heal := run(t, nil, args...)
	if heal.Code != 0 || heal.Stdout != reference(t, flags, "json") {
		t.Fatalf("healed rerun: code %d, identical %v", heal.Code, heal.Stdout == reference(t, flags, "json"))
	}
	if n := corruptCount(t, heal.Stderr); n != 0 {
		t.Fatalf("healed rerun still sees %d corrupt entries:\n%s", n, clip(heal.Stderr))
	}
}

// corruptCount parses the corrupt-entry counter from the stderr cache
// summary line.
func corruptCount(t *testing.T, stderr string) int {
	t.Helper()
	m := regexp.MustCompile(`(\d+) corrupt`).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no cache summary line on stderr:\n%s", clip(stderr))
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// scenarioRetryExhaustion poisons units on the static pool, where each is
// dead-lettered after its one attempt. The sweep must terminate (no
// hang), exit loudly, name exactly the dead-lettered units, and still
// emit a well-formed partial report — including the degenerate case
// where every unit dies.
func scenarioRetryExhaustion(t *testing.T) {
	flags := quickFlags()
	units := planUnits(t, flags)
	poisoned := []string{units[1], units[3]}
	sort.Strings(poisoned)

	res := run(t, nil, append(quickFlags(),
		"-fail-unit", strings.Join(poisoned, ","), "-format", "json")...)
	if res.Code != 1 {
		t.Fatalf("poisoned sweep exited %d, want 1\nstderr:\n%s", res.Code, clip(res.Stderr))
	}
	if !strings.Contains(res.Stderr, "dead-lettered") ||
		!strings.Contains(res.Stderr, fmt.Sprintf("2 of %d", len(units))) {
		t.Fatalf("dead-letter failure not loud:\n%s", clip(res.Stderr))
	}
	for _, id := range poisoned {
		if !strings.Contains(res.Stderr, id) {
			t.Errorf("dead-lettered unit %s not named on stderr:\n%s", id, clip(res.Stderr))
		}
	}
	dl := deadLetterUnits(t, res.Stdout)
	sort.Strings(dl)
	if strings.Join(dl, ",") != strings.Join(poisoned, ",") {
		t.Fatalf("report dead letters %v, want exactly %v", dl, poisoned)
	}
	for _, d := range coordination(t, res.Stdout)["dead_letters"].([]any) {
		if attempts := d.(map[string]any)["attempts"]; attempts != 1.0 {
			t.Errorf("dead letter %v reports %v attempts, want 1", d, attempts)
		}
	}

	// The degenerate cascade: every unit poisoned. Still a loud exit and
	// a well-formed empty partial report — model-checked tables intact,
	// run-derived sections empty, summary zero (not the sentinel range).
	all := run(t, nil, append(quickFlags(),
		"-fail-unit", strings.Join(units, ","), "-format", "json")...)
	if all.Code != 1 {
		t.Fatalf("all-poisoned sweep exited %d, want 1\nstderr:\n%s", all.Code, clip(all.Stderr))
	}
	if !strings.Contains(all.Stderr, fmt.Sprintf("%d of %d", len(units), len(units))) {
		t.Fatalf("all-poisoned failure does not report the full loss:\n%s", clip(all.Stderr))
	}
	if dl := deadLetterUnits(t, all.Stdout); len(dl) != len(units) {
		t.Fatalf("all-poisoned dead letters %d, want %d", len(dl), len(units))
	}
	var rep struct {
		Table1  []any `json:"table1"`
		Table3  []any `json:"table3"`
		Fig11a  []any `json:"fig11a"`
		Summary struct {
			Type2Min float64 `json:"type2_cost_reduction_min"`
			Type2Max float64 `json:"type2_cost_reduction_max"`
		} `json:"summary"`
	}
	if err := jsonInto(all.Stdout, &rep); err != nil {
		t.Fatalf("all-poisoned report unparsable: %v\n%s", err, clip(all.Stdout))
	}
	if len(rep.Table3) != 0 || len(rep.Fig11a) != 0 {
		t.Fatalf("run-derived sections non-empty in the empty partial report: table3=%d fig11a=%d", len(rep.Table3), len(rep.Fig11a))
	}
	if len(rep.Table1) == 0 {
		t.Fatal("model-checked table missing from the empty partial report")
	}
	if rep.Summary.Type2Min != 0 || rep.Summary.Type2Max != 0 {
		t.Fatalf("empty partial report's summary carries sentinel values: min=%g max=%g",
			rep.Summary.Type2Min, rep.Summary.Type2Max)
	}
}

// scenarioCoordinatorRestart covers the transport edges of a restarting
// coordinator: a worker with a mismatched plan is rejected fast; a
// worker whose coordinator dies mid-sweep fails loudly instead of
// hanging; a restarted coordinator drains with a fresh worker to the
// same byte-identical report.
func scenarioCoordinatorRestart(t *testing.T) {
	flags := quickFlags()
	addr := pickPort(t)
	url := "http://" + addr
	serveArgs := append(quickFlags(), "-serve-coordinator", addr, "-lease-ttl", "2s", "-format", "json")

	srvA := start(t, nil, serveArgs...)
	waitListening(t, addr, srvA)

	// A worker whose flags disagree rebuilds a different plan and must
	// be turned away before any work is handed out.
	mismatched := run(t, nil, "-quick", "-cores", "4", "-scale", "0.1", "-worker", url, "-worker-name", "mismatched")
	if mismatched.Code == 0 {
		t.Fatal("plan-mismatched worker was handed work")
	}
	if !strings.Contains(mismatched.Stderr, "plan") {
		t.Fatalf("mismatch rejection does not name the plan:\n%s", clip(mismatched.Stderr))
	}

	// A victim worker, slowed so the sweep outlives the coordinator.
	victimSpec := &chaos.Spec{Seed: *chaosSeed, Rules: []chaos.Rule{
		{Hook: chaos.HookLease, Kind: chaos.KindDelay, Match: "victim", DelayMS: 150},
	}}
	victim := start(t, victimSpec, append(quickFlags(), "-worker", url, "-worker-name", "victim")...)
	time.Sleep(1200 * time.Millisecond)
	srvA.kill()
	vres := victim.wait(t)
	if vres.Code == 0 {
		t.Fatal("worker drained against a killed coordinator")
	}
	if vres.Code == chaos.KillExitCode || vres.Code == 3 {
		t.Fatalf("worker exited %d; the failure should be the transport, not an injected fault", vres.Code)
	}

	// Restart on the same address: a fresh fleet must complete the sweep
	// from scratch and reproduce the reference.
	srvB := start(t, nil, serveArgs...)
	waitListening(t, addr, srvB)
	if r := run(t, nil, append(quickFlags(), "-worker", url, "-worker-name", "second-shift")...); r.Code != 0 {
		t.Fatalf("post-restart worker exited %d:\n%s", r.Code, clip(r.Stderr))
	}
	sres := srvB.wait(t)
	if sres.Code != 0 {
		t.Fatalf("restarted coordinator exited %d:\n%s", sres.Code, clip(sres.Stderr))
	}
	coord := coordination(t, sres.Stdout)
	if coord["mode"] != "http" {
		t.Fatalf("coordination mode %v, want http", coord["mode"])
	}
	if got, want := jsonWithoutCoordination(t, sres.Stdout), jsonWithoutCoordination(t, reference(t, flags, "json")); got != want {
		t.Fatal("post-restart report diverged from the static reference outside the coordination section")
	}
}
