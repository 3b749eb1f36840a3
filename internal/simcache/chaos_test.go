package simcache

import (
	"os"
	"strings"
	"syscall"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
)

// armChaos installs an injector for the test's duration.
func armChaos(t *testing.T, spec chaos.Spec) *chaos.Injector {
	t.Helper()
	in, err := chaos.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	in.Exit = func(int) {}
	in.Logf = func(string, ...any) {}
	chaos.Install(in)
	t.Cleanup(chaos.Uninstall)
	return in
}

// TestChaosReadFlipIsDetected verifies a bit flipped on the disk-read
// path is caught by the entry checksum and served as a miss, with the
// on-disk entry (healthy — the flip was in-flight) deleted and rewritten
// by the next Put as usual.
func TestChaosReadFlipIsDetected(t *testing.T) {
	dir := t.TempDir()
	cold := mustOpen(t, WithDir(dir))
	k := testKey("flip-trace", core.Type3)
	if err := cold.PutSim(k, fakeResult("flip-trace", core.Type3)); err != nil {
		t.Fatal(err)
	}

	armChaos(t, chaos.Spec{Seed: 11, Rules: []chaos.Rule{
		{Hook: chaos.HookCacheRead, Kind: chaos.KindFlip},
	}})
	warm := mustOpen(t, WithDir(dir))
	if _, ok := warm.GetSim(k); ok {
		t.Fatal("bit-flipped read served as a hit")
	}
	st := warm.Stats()
	if st.Corrupt != 1 || st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("stats %+v, want 1 corrupt miss", st)
	}
}

// TestChaosReadErrorIsMiss verifies an injected read error (disk dying
// mid-read) degrades to a plain miss.
func TestChaosReadErrorIsMiss(t *testing.T) {
	dir := t.TempDir()
	cold := mustOpen(t, WithDir(dir))
	k := testKey("err-trace", core.Type2)
	if err := cold.PutSim(k, fakeResult("err-trace", core.Type2)); err != nil {
		t.Fatal(err)
	}
	armChaos(t, chaos.Spec{Rules: []chaos.Rule{
		{Hook: chaos.HookCacheRead, Kind: chaos.KindENOSPC},
	}})
	warm := mustOpen(t, WithDir(dir))
	if _, ok := warm.GetSim(k); ok {
		t.Fatal("failed read served as a hit")
	}
	if st := warm.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats %+v, want a plain miss", st)
	}
	// The entry itself is healthy: with chaos off it must hit again.
	chaos.Uninstall()
	if _, ok := warm.GetSim(k); !ok {
		t.Fatal("healthy entry missed after chaos lifted")
	}
}

// corruptEntry damages the single on-disk entry of dir in place.
func corruptEntry(t *testing.T, dir string) string {
	t.Helper()
	path := entryFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadOnlyDirToleratesUndeletableCorruptEntry pins the satellite
// fix: when a corrupt entry cannot be deleted (read-only cache dir), the
// lookup is still just a logged miss — never an error, never a sweep
// failure — and the failure is counted and rendered in the stats line.
// chmod does not stop root, so the deletion failure is forced through
// the removeEntry seam; the chmod'd-dir variant below exercises the real
// syscall path when the test runs unprivileged.
func TestReadOnlyDirToleratesUndeletableCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	cold := mustOpen(t, WithDir(dir))
	k := testKey("ro-trace", core.Type2)
	if err := cold.PutSim(k, fakeResult("ro-trace", core.Type2)); err != nil {
		t.Fatal(err)
	}
	path := corruptEntry(t, dir)

	orig := removeEntry
	removeEntry = func(string) error { return syscall.EACCES }
	defer func() { removeEntry = orig }()

	warm := mustOpen(t, WithDir(dir))
	if _, ok := warm.GetSim(k); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	st := warm.Stats()
	if st.Corrupt != 1 || st.DeleteErrors != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want corrupt=1 delete_errors=1 misses=1", st)
	}
	if !strings.Contains(st.String(), "1 undeletable corrupt entries") {
		t.Fatalf("stats line %q does not surface the delete failure", st.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("entry vanished despite the forced delete failure: %v", err)
	}
	// Every retry stays a miss, never an error or a hit.
	if _, ok := warm.GetSim(k); ok {
		t.Fatal("second lookup of the undeletable corrupt entry hit")
	}
	if st := warm.Stats(); st.DeleteErrors != 2 {
		t.Fatalf("second lookup did not count its delete failure: %+v", st)
	}
}

// TestChmodReadOnlyDir runs the same tolerance check against a real
// chmod'd directory. Root bypasses directory permissions, so under root
// only the miss behaviour (not the delete failure) is asserted.
func TestChmodReadOnlyDir(t *testing.T) {
	dir := t.TempDir()
	cold := mustOpen(t, WithDir(dir))
	k := testKey("chmod-trace", core.Type3)
	if err := cold.PutSim(k, fakeResult("chmod-trace", core.Type3)); err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, dir)

	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)

	warm := mustOpen(t, WithDir(dir))
	if _, ok := warm.GetSim(k); ok {
		t.Fatal("corrupt entry served as a hit from the read-only dir")
	}
	st := warm.Stats()
	if st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want one corrupt miss", st)
	}
	if os.Geteuid() != 0 && st.DeleteErrors != 1 {
		t.Fatalf("unprivileged chmod'd-dir lookup did not count the delete failure: %+v", st)
	}
}
