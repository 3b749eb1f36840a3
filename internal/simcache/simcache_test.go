package simcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fakeResult builds a representative sim.Result exercising every field of
// the serialized shape (nested slices, flags, counters).
func fakeResult(trace string, typ core.AtomicityType) *sim.Result {
	return &sim.Result{
		Workload: trace,
		RMWType:  typ,
		Cycles:   123456,
		PerCore: []sim.CoreStats{
			{Core: 0, Cycles: 123456, Reads: 10, Writes: 5, RMWs: 3, Fences: 1, Computes: 7,
				RMWsCompleted: 3, RMWWriteBufferCycles: 40, RMWRaWaCycles: 60, RMWReverts: 1, RMWBroadcasts: 2,
				ReadStallCycles: 11, WriteStallCycles: 13},
			{Core: 1, Cycles: 120000, Reads: 9, Writes: 4, RMWs: 2},
		},
		Broadcasts:           2,
		UniqueRMWs:           2,
		DirectoryLockDenials: 4,
	}
}

// fakeSource is a minimal sim.TraceSource for key derivation in tests.
type fakeSource struct {
	name  string
	cores int
}

func (f fakeSource) Name() string              { return f.name }
func (f fakeSource) Cores() int                { return f.cores }
func (f fakeSource) Stream(c int) sim.OpStream { return nil }

func testKey(trace string, typ core.AtomicityType) Key {
	return SimKey(sim.DefaultConfig().WithCores(8).WithRMWType(typ), fakeSource{trace, 8}, 20130601, 0.25)
}

func mustOpen(t *testing.T, opts ...Option) *Cache {
	t.Helper()
	c, err := Open(opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c
}

// entryFile returns the single on-disk entry of a one-entry cache dir.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+entryExt))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected exactly one entry file, got %v (err %v)", matches, err)
	}
	return matches[0]
}

func TestMemoryRoundTrip(t *testing.T) {
	c := mustOpen(t)
	k := testKey("bayes", core.Type2)
	want := fakeResult("bayes", core.Type2)
	if err := c.PutSim(k, want); err != nil {
		t.Fatalf("PutSim: %v", err)
	}
	got, ok := c.GetSim(k)
	if !ok {
		t.Fatalf("GetSim missed a just-stored key")
	}
	// The memory tier holds results decoded: a hit returns the very
	// pointer PutSim stored, with no copy and no decode.
	if got != want {
		t.Fatalf("GetSim returned %p, want the stored pointer %p", got, want)
	}
	st := c.Stats()
	if st.MemoryHits != 1 || st.Misses != 0 || st.Stores != 1 {
		t.Fatalf("stats = %+v, want 1 memory hit / 0 misses / 1 store", st)
	}
	if _, ok := c.GetSim(testKey("bayes", core.Type3)); ok {
		t.Fatalf("GetSim hit on a different RMW type")
	}
	if c.Stats().Misses != 1 {
		t.Fatalf("miss not counted: %+v", c.Stats())
	}
}

// TestKeyDigestPinned pins the canonical string and digest of known keys
// so an accidental Key/Config field reordering (or a silent canonical
// format change) breaks loudly; an intentional change must bless these
// values and bump SchemaVersion. Every disk entry embeds its canonical
// key, so a drift of one byte would turn every existing cache cold. The
// keys cover negative and extreme seeds, scales that format with and
// without an exponent, a workload digest and every RMW type.
func TestKeyDigestPinned(t *testing.T) {
	wsq, err := workload.Generator{Cores: 4, Seed: 7, Replacement: workload.ReadReplacement}.Source(workload.WSQProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key             Key
		canonical, hash string
	}{
		{
			SimKey(sim.DefaultConfig().WithRMWType(core.Type2), fakeSource{"radiosity", 32}, 20130601, 1),
			"simcache/v2|kind=sim-result|cfg=585c16977312da197d4bc0588d44de9a5035230ee85f689813b960bcd036db1f|trace=radiosity|wl=|cores=32|seed=20130601|scale=1|rmw=2",
			"6e96cb7997af01fe0e3f75436835add190b94412340c5abf7fe7df2c5efdad16",
		},
		{
			SimKey(sim.DefaultConfig().WithRMWType(core.Type1), fakeSource{"radiosity", 32}, -1, 0.2),
			"simcache/v2|kind=sim-result|cfg=96af290f99838f0ff80d8635f7282f4c32979f432cdc57beca191eebee436807|trace=radiosity|wl=|cores=32|seed=-1|scale=0.2|rmw=1",
			"818ba665707a416df55ea54933be6b4364c71f98cb35c6eea40fa87d14e16b9e",
		},
		{
			SimKey(sim.DefaultConfig().WithCores(8).WithRMWType(core.Type3), fakeSource{"bayes", 8}, math.MinInt64, 1e-7),
			"simcache/v2|kind=sim-result|cfg=e18b679ca9d0db625aeb90a005d2e8bebe627d210e6507ddc3a6f38c0991e352|trace=bayes|wl=|cores=8|seed=-9223372036854775808|scale=1e-07|rmw=3",
			"61de86c47916c2e2bcb55ab499e925aad9d07b34d8d62567957c561d41533c2c",
		},
		{
			SimKey(sim.DefaultConfig().WithCores(4).WithRMWType(core.Type2), wsq, math.MaxInt64, 1e21),
			"simcache/v2|kind=sim-result|cfg=a9f7f7865242fe389a047aafdfce57b7379bfbe1fe0e50ba8818d35dfc5a1571|trace=wsq-mst_rr|wl=3d07de9e65d726edd998e77a57a2034058b461a345df596ba3f3868a3e451fb7|replace=1|cores=4|seed=9223372036854775807|scale=1e+21|rmw=2",
			"c58a70506c672cfde472e23baf8383c210779a66a9196b30a051774e823cb2e9",
		},
	} {
		k := tc.key
		if got := k.Canonical(); got != tc.canonical {
			t.Errorf("canonical key changed:\ngot  %s\nwant %s\n(bless this and bump SchemaVersion if intentional)", got, tc.canonical)
		}
		if got := string(AppendCanonical([]byte("prefix|"), k)); got != "prefix|"+tc.canonical {
			t.Errorf("AppendCanonical = %s, want the prefix and %s", got, tc.canonical)
		}
		if got := k.Digest(); got != tc.hash {
			t.Errorf("key digest of %s changed:\ngot  %s\nwant %s", tc.canonical, got, tc.hash)
		}
		if got := UnitIDOf([]byte(tc.canonical)); got != tc.hash[:UnitIDLen] {
			t.Errorf("unit ID of %s = %s, want the digest's prefix %s", tc.canonical, got, tc.hash[:UnitIDLen])
		}
	}
	// Scale 0 must normalize to the scale-1 key.
	src := fakeSource{"radiosity", 32}
	if got := SimKey(sim.DefaultConfig().WithRMWType(core.Type2), src, 20130601, 0).Digest(); got != "6e96cb7997af01fe0e3f75436835add190b94412340c5abf7fe7df2c5efdad16" {
		t.Fatalf("unset scale did not normalize to scale 1")
	}
}

// TestSimKeyUsesWorkloadIdentity pins that a source able to identify its
// content (workload.Source) contributes a workload digest to the key, so
// a tweaked profile under a stock name cannot alias.
func TestSimKeyUsesWorkloadIdentity(t *testing.T) {
	cfg := sim.DefaultConfig().WithCores(4).WithRMWType(core.Type1)
	p, err := workload.FindProfile("radiosity")
	if err != nil {
		t.Fatalf("FindProfile: %v", err)
	}
	gen := workload.Generator{Cores: 4, Seed: 1}
	stock, err := gen.Source(p)
	if err != nil {
		t.Fatalf("Source: %v", err)
	}
	tweakedProfile := p
	tweakedProfile.CriticalSectionOps++
	tweaked, err := gen.Source(tweakedProfile)
	if err != nil {
		t.Fatalf("Source: %v", err)
	}
	stockKey := SimKey(cfg, stock, 1, 1)
	if stockKey.Workload == "" {
		t.Fatalf("workload.Source contributed no workload digest")
	}
	if SimKey(cfg, tweaked, 1, 1) == stockKey {
		t.Fatalf("tweaked profile aliases the stock profile's cache key")
	}
	// Sources without a workload identity still key on their name.
	if SimKey(cfg, fakeSource{"radiosity", 4}, 1, 1).Workload != "" {
		t.Fatalf("plain source unexpectedly has a workload digest")
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustOpen(t)
	c.cap = 2
	keys := []Key{testKey("a", core.Type1), testKey("b", core.Type1), testKey("c", core.Type1)}
	for _, k := range keys {
		if err := c.PutSim(k, fakeResult(k.Trace, core.Type1)); err != nil {
			t.Fatalf("PutSim: %v", err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.GetSim(keys[0]); ok {
		t.Fatalf("oldest entry survived past the capacity bound")
	}
	if _, ok := c.GetSim(keys[1]); !ok {
		t.Fatalf("recent entry evicted")
	}
	// Touch "b" so "c" becomes the LRU victim of the next insert.
	if err := c.PutSim(testKey("d", core.Type1), fakeResult("d", core.Type1)); err != nil {
		t.Fatalf("PutSim: %v", err)
	}
	if _, ok := c.GetSim(keys[2]); ok {
		t.Fatalf("LRU order not respected: untouched entry survived")
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
}

func TestDiskWarm(t *testing.T) {
	dir := t.TempDir()
	k := testKey("genome", core.Type3)
	want := fakeResult("genome", core.Type3)

	c1 := mustOpen(t, WithDir(dir))
	if err := c1.PutSim(k, want); err != nil {
		t.Fatalf("PutSim: %v", err)
	}

	// A fresh cache over the same directory (a "new process") must serve
	// the entry from disk, then promote it to memory.
	c2 := mustOpen(t, WithDir(dir))
	got, ok := c2.GetSim(k)
	if !ok {
		t.Fatalf("disk-warm GetSim missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disk round-trip differs:\ngot  %+v\nwant %+v", got, want)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit", st)
	}
	if _, ok := c2.GetSim(k); !ok {
		t.Fatalf("promoted entry missed")
	}
	if st := c2.Stats(); st.MemoryHits != 1 {
		t.Fatalf("stats = %+v, want promotion to memory", st)
	}
}

// TestPathMatchesJoin pins an entry's file to the one filepath.Join names
// for directories given in unclean forms, and Dir to the form given.
func TestPathMatchesJoin(t *testing.T) {
	base := t.TempDir()
	digest := digestOf([]byte("path"))
	for _, dir := range []string{".", base, base + "/", base + "//a/./b/", base + "/c/../d"} {
		c := mustOpen(t, WithDir(dir))
		if got, want := c.path(digest), filepath.Join(dir, digest+entryExt); got != want {
			t.Errorf("dir %q: path = %q, want %q", dir, got, want)
		}
		if c.Dir() != dir {
			t.Errorf("Dir() = %q, want %q", c.Dir(), dir)
		}
	}
}

// TestCorruptionBitFlip flips one bit at every byte position of an on-disk
// entry and asserts each read misses cleanly, deleting the damaged file
// and counting it corrupt: the entry has no insignificant byte (the magic
// line, the key and the checksum are compared whole, and the checksum
// covers every payload byte). No flip may panic or return a result.
func TestCorruptionBitFlip(t *testing.T) {
	dir := t.TempDir()
	k := testKey("raytrace", core.Type2)
	want := fakeResult("raytrace", core.Type2)
	c := mustOpen(t, WithDir(dir))
	if err := c.PutSim(k, want); err != nil {
		t.Fatalf("PutSim: %v", err)
	}
	path := entryFile(t, dir)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading entry: %v", err)
	}

	for i := range orig {
		damaged := append([]byte(nil), orig...)
		damaged[i] ^= 0x01
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatalf("writing damaged entry: %v", err)
		}
		// Fresh cache per flip so the memory tier cannot mask the disk read.
		fresh := mustOpen(t, WithDir(dir))
		if got, ok := fresh.GetSim(k); ok {
			t.Fatalf("bit flip at byte %d served a hit: %+v (original %+v)", i, got, want)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("bit flip at byte %d: damaged entry not deleted (stat err %v)", i, err)
		}
		if st := fresh.Stats(); st.Corrupt != 1 || st.Misses != 1 {
			t.Fatalf("bit flip at byte %d: stats %+v, want 1 corrupt + 1 miss", i, st)
		}
		// Restore for the next position.
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatalf("restoring entry: %v", err)
		}
	}
}

func TestTruncatedEntry(t *testing.T) {
	dir := t.TempDir()
	k := testKey("dedup", core.Type1)
	c := mustOpen(t, WithDir(dir))
	if err := c.PutSim(k, fakeResult("dedup", core.Type1)); err != nil {
		t.Fatalf("PutSim: %v", err)
	}
	path := entryFile(t, dir)
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatalf("truncating: %v", err)
	}
	fresh := mustOpen(t, WithDir(dir))
	if _, ok := fresh.GetSim(k); ok {
		t.Fatalf("truncated entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("truncated entry not deleted")
	}
}

func TestGarbageEntry(t *testing.T) {
	dir := t.TempDir()
	k := testKey("fluidanimate", core.Type1)
	c := mustOpen(t, WithDir(dir))
	if err := c.PutSim(k, fakeResult("fluidanimate", core.Type1)); err != nil {
		t.Fatalf("PutSim: %v", err)
	}
	path := entryFile(t, dir)
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatalf("writing garbage: %v", err)
	}
	fresh := mustOpen(t, WithDir(dir))
	if _, ok := fresh.GetSim(k); ok {
		t.Fatalf("garbage entry served as a hit")
	}
	if st := fresh.Stats(); st.Corrupt != 1 {
		t.Fatalf("garbage not counted corrupt: %+v", st)
	}
}

// TestLayoutVersionMismatch rewrites a valid entry's magic line to name
// another layout version; the entry must be dropped as corrupt, not
// misread.
func TestLayoutVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	k := testKey("wsq-mst", core.Type2)
	c := mustOpen(t, WithDir(dir))
	if err := c.PutSim(k, fakeResult("wsq-mst", core.Type2)); err != nil {
		t.Fatalf("PutSim: %v", err)
	}
	path := entryFile(t, dir)
	data, _ := os.ReadFile(path)
	magic, body, ok := bytes.Cut(data, []byte("\n"))
	if !ok || string(magic)+"\n" != entryMagic {
		t.Fatalf("entry starts with %q, want the magic line %q", magic, entryMagic)
	}
	version := bytes.LastIndexByte(magic, '/')
	redone := append(append(magic[:version+1:version+1], "2\n"...), body...)
	if err := os.WriteFile(path, redone, 0o644); err != nil {
		t.Fatalf("rewriting: %v", err)
	}
	fresh := mustOpen(t, WithDir(dir))
	if _, ok := fresh.GetSim(k); ok {
		t.Fatalf("entry of another layout served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("entry of another layout not deleted")
	}
	if st := fresh.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 corrupt + 1 miss", st)
	}
}

// TestLegacyJSONEntry pins how a cache directory of an earlier build
// reads: a JSON entry under the key's digest is never opened, so the
// lookup is a plain miss (not a corrupt one) that leaves the file alone,
// and Clear deletes it.
func TestLegacyJSONEntry(t *testing.T) {
	dir := t.TempDir()
	k := testKey("legacy", core.Type1)
	legacy, err := json.Marshal(map[string]any{
		"schema_version": SchemaVersion,
		"key":            k,
		"payload":        fakeResult("legacy", core.Type1),
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, k.Digest()+legacyEntryExt)
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, WithDir(dir))
	if _, ok := c.GetSim(k); ok {
		t.Fatalf("legacy JSON entry served as a hit")
	}
	if st := c.Stats(); st.Misses != 1 || st.Corrupt != 0 {
		t.Fatalf("stats %+v, want a plain miss", st)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("a lookup touched the legacy entry: %v", err)
	}
	if err := c.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Clear left the legacy entry behind (stat err %v)", err)
	}
}

// TestEntryKeepsEveryField sets every field of sim.Result and of each
// CoreStats to a distinct non-zero value and requires the disk round trip
// to keep them all, so a field added to either struct without codec
// support fails here by name.
func TestEntryKeepsEveryField(t *testing.T) {
	next := uint64(0)
	var fill func(v reflect.Value, name string)
	fill = func(v reflect.Value, name string) {
		next++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i), name+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 3, 3))
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i), fmt.Sprintf("%s[%d]", name, i))
			}
		case reflect.String:
			v.SetString(fmt.Sprintf("%s-%d", name, next))
		// Numbers keep next in their low byte, which makes them distinct,
		// and spread over the varint lengths above it.
		case reflect.Int:
			// Alternate signs so the zig-zag encoding sees both.
			n := int64(next | next<<(8+next%40))
			if next%2 == 1 {
				n = -n
			}
			v.SetInt(n)
		case reflect.Uint64:
			v.SetUint(next | next<<(8+next*7%56))
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Fatalf("%s is a %s, which this test cannot fill: teach the entry codec and this test about it", name, v.Kind())
		}
	}
	want := &sim.Result{}
	fill(reflect.ValueOf(want).Elem(), "Result")

	canonical := []byte(testKey("every-field", core.Type3).Canonical())
	got, err := decodeEntry(encodeEntry(canonical, want), canonical)
	if err != nil {
		t.Fatalf("decoding the entry: %v", err)
	}
	var diff func(g, w reflect.Value, name string)
	diff = func(g, w reflect.Value, name string) {
		switch w.Kind() {
		case reflect.Struct:
			for i := 0; i < w.NumField(); i++ {
				diff(g.Field(i), w.Field(i), name+"."+w.Type().Field(i).Name)
			}
		case reflect.Slice:
			if g.Len() != w.Len() {
				t.Errorf("%s has %d elements after the round trip, want %d", name, g.Len(), w.Len())
				return
			}
			for i := 0; i < w.Len(); i++ {
				diff(g.Index(i), w.Index(i), fmt.Sprintf("%s[%d]", name, i))
			}
		default:
			if !reflect.DeepEqual(g.Interface(), w.Interface()) {
				t.Errorf("%s = %v after the round trip, want %v", name, g.Interface(), w.Interface())
			}
		}
	}
	diff(reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem(), "Result")
}

// TestCountBombEntry writes an entry whose magic line, key and checksum
// are all valid but whose payload claims 2^40 cores. The checksum is no
// proof against a crafted file: the count must be checked against the
// bytes that follow, so the lookup is a counted corrupt miss that deletes
// the file without allocating for the claimed cores.
func TestCountBombEntry(t *testing.T) {
	dir := t.TempDir()
	k := testKey("bomb", core.Type2)
	c := mustOpen(t, WithDir(dir))
	if err := c.PutSim(k, fakeResult("bomb", core.Type2)); err != nil {
		t.Fatalf("PutSim: %v", err)
	}
	path := entryFile(t, dir)

	payload := binary.AppendUvarint(nil, uint64(len("bomb")))
	payload = append(payload, "bomb"...)
	payload = binary.AppendVarint(payload, int64(core.Type2))
	payload = binary.AppendUvarint(payload, 123456)
	payload = binary.AppendUvarint(payload, 1<<40)
	payload = append(payload, make([]byte, 64)...)
	sum := sha256.Sum256(payload)
	canonical := k.Canonical()
	bomb := append([]byte(entryMagic), binary.AppendUvarint(nil, uint64(len(canonical)))...)
	bomb = append(bomb, canonical...)
	bomb = append(bomb, sum[:]...)
	bomb = append(bomb, payload...)
	if err := os.WriteFile(path, bomb, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := mustOpen(t, WithDir(dir))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok := fresh.GetSim(k)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatalf("count-bomb entry served as a hit")
	}
	if st := fresh.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 corrupt + 1 miss", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("count-bomb entry not deleted (stat err %v)", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the count bomb allocated %d bytes", grew)
	}
}

func TestClear(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, WithDir(dir))
	k := testKey("bayes", core.Type1)
	if err := c.PutSim(k, fakeResult("bayes", core.Type1)); err != nil {
		t.Fatalf("PutSim: %v", err)
	}
	if err := c.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("memory tier not cleared")
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "*"+entryExt))
	if len(matches) != 0 {
		t.Fatalf("disk tier not cleared: %v", matches)
	}
	if _, ok := c.GetSim(k); ok {
		t.Fatalf("cleared entry still served")
	}
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// TestMemoryHitAllocs pins the memory tier's cost: a hit of a 32-core
// result allocates nothing. It neither copies nor decodes the result,
// and the key and its digest are built in stack buffers.
func TestMemoryHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are noise under the race detector")
	}
	c := mustOpen(t)
	k := SimKey(sim.DefaultConfig().WithRMWType(core.Type2), fakeSource{"alloc", 32}, 20130601, 0.2)
	r := fakeResult("alloc", core.Type2)
	r.PerCore = make([]sim.CoreStats, 32)
	if err := c.PutSim(k, r); err != nil {
		t.Fatalf("PutSim: %v", err)
	}
	hit := testing.AllocsPerRun(100, func() {
		if got, ok := c.GetSim(k); !ok || got != r {
			t.Fatalf("memory hit missed or returned another pointer")
		}
	})
	if hit != 0 {
		t.Fatalf("a memory hit allocates %.0f times, want none", hit)
	}
}

// TestConcurrentSharedResults hammers one key from several goroutines:
// stores replace the shared pointer (and, with the disk tier on, encode
// it) while lookups read the results they were handed. Run under -race,
// it checks that the memory tier's pointer swaps are synchronized and
// that sharing results for reading needs no copies.
func TestConcurrentSharedResults(t *testing.T) {
	c := mustOpen(t, WithDir(t.TempDir()))
	k := testKey("shared", core.Type2)
	want := fakeResult("shared", core.Type2)
	if err := c.PutSim(k, want); err != nil {
		t.Fatalf("PutSim: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g%2 == 0 {
					if err := c.PutSim(k, fakeResult("shared", core.Type2)); err != nil {
						t.Errorf("PutSim: %v", err)
					}
					continue
				}
				got, ok := c.GetSim(k)
				if !ok || !reflect.DeepEqual(got, want) {
					t.Errorf("GetSim = %+v, %v; want %+v", got, ok, want)
				}
			}
		}(g)
	}
	wg.Wait()
}
