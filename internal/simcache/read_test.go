package simcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/sim"
)

// refUvarint is the varint rule the payload format fixes, stated with
// encoding/binary: a complete varint of at most ten bytes that fits 64
// bits, with no zero last byte after its first.
func refUvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, -1
	}
	return v, n
}

// TestUvarintMatchesReference checks the inline varint decoder against
// encoding/binary plus the minimality rule, on the edge cases of every
// width it handles and on seeded random bytes: it must accept exactly
// what the reference accepts, with the same value and length.
func TestUvarintMatchesReference(t *testing.T) {
	var inputs [][]byte
	for width := 1; width <= binary.MaxVarintLen64; width++ {
		lo := uint64(0)
		if width > 1 {
			lo = 1 << (7 * (width - 1))
		}
		minimal := binary.AppendUvarint(nil, lo)
		if len(minimal) != width {
			t.Fatalf("%d encodes in %d bytes, want %d", lo, len(minimal), width)
		}
		inputs = append(inputs,
			minimal,
			minimal[:width-1], // cut off at the payload's end
			binary.AppendUvarint(nil, lo|lo>>1|1))
		if width < binary.MaxVarintLen64 {
			// The same value padded to one byte more: not minimal.
			padded := bytes.Clone(minimal)
			padded[width-1] |= 0x80
			inputs = append(inputs, append(padded, 0))
		}
	}
	top := binary.AppendUvarint(nil, ^uint64(0))
	tooBig := bytes.Clone(top)
	tooBig[9] = 2 // bit 64
	eleven := append(bytes.Repeat([]byte{0xff}, 10), 0x01)
	inputs = append(inputs, top, tooBig, eleven, []byte{0x80, 0x00}, []byte{0x80}, nil)

	rng := rand.New(rand.NewSource(5))
	for range 20000 {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			// Mostly continuation bytes, so long varints are drawn too.
			b[i] = byte(rng.Intn(256))
			if rng.Intn(4) > 0 {
				b[i] |= 0x80
			}
		}
		inputs = append(inputs, b)
	}

	for _, in := range inputs {
		wantV, wantN := refUvarint(in)
		gotV, gotN := uvarint(in, 0)
		if wantN < 0 {
			if gotN >= 0 {
				t.Fatalf("uvarint(%x) accepted %d (%d bytes); the reference rejects it", in, gotV, gotN)
			}
			continue
		}
		if gotV != wantV || gotN != wantN {
			t.Fatalf("uvarint(%x) = %d, %d; want %d, %d", in, gotV, gotN, wantV, wantN)
		}
	}
}

// TestDecodeResultRejectsMalformedVarints plants malformed varints in a
// real payload's last field: the field padded to a non-minimal form at
// every width, cut off at the payload's end, and grown to an 11-byte
// overflow. Each must be rejected.
func TestDecodeResultRejectsMalformedVarints(t *testing.T) {
	r := fakeResult("varints", core.Type2)
	r.DirectoryLockDenials = 5
	payload := appendResult(nil, r)
	head := payload[:len(payload)-1] // every field but the last, which takes one byte
	for width := 1; width <= binary.MaxVarintLen64; width++ {
		// The value 5 in width bytes; only one byte is minimal.
		v := append(bytes.Repeat([]byte{0x80}, width-1), 0)
		v[0] |= 5
		_, err := decodeResult(append(bytes.Clone(head), v...))
		if (err == nil) != (width == 1) {
			t.Errorf("5 in %d bytes: err %v", width, err)
		}
	}
	eleven := append(bytes.Clone(head), append(bytes.Repeat([]byte{0xff}, 10), 0x01)...)
	if _, err := decodeResult(eleven); err == nil {
		t.Error("an 11-byte varint is accepted")
	}
	r.DirectoryLockDenials = 1 << 62 // nine bytes
	payload = appendResult(nil, r)
	if _, err := decodeResult(payload); err != nil {
		t.Fatalf("the intact payload is rejected: %v", err)
	}
	if _, err := decodeResult(payload[:len(payload)-1]); err == nil {
		t.Error("a varint cut off at the payload's end is accepted")
	}
}

// TestDecodedResultOwnsItsMemory decodes an entry and then overwrites the
// bytes it was decoded from: the result must not change, since disk
// lookups hand their read buffer to the next lookup at once.
func TestDecodedResultOwnsItsMemory(t *testing.T) {
	canonical := []byte(testKey("owned", core.Type2).Canonical())
	want := fakeResult("owned", core.Type2)
	data := encodeEntry(canonical, want)
	got, err := decodeEntry(data, canonical)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xa5
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after the buffer is overwritten the result reads %+v, want %+v", got, want)
	}
}

// TestConcurrentDiskLookups runs eight goroutines of disk lookups on one
// cache whose memory tier holds a single entry, so nearly every lookup
// reads a file into a pooled buffer another goroutine used before. Each
// result must equal the stored one; under -race, a result that kept a
// pointer into a reused buffer is also a reported race.
func TestConcurrentDiskLookups(t *testing.T) {
	dir := t.TempDir()
	cold := mustOpen(t, WithDir(dir))
	const n = 16
	keys := make([]Key, n)
	want := make([]*sim.Result, n)
	for i := range keys {
		trace := fmt.Sprintf("trace-%d", i)
		keys[i] = testKey(trace, core.Type2)
		want[i] = fakeResult(trace, core.Type2)
		want[i].PerCore = append(want[i].PerCore, make([]sim.CoreStats, i)...)
		if err := cold.PutSim(keys[i], want[i]); err != nil {
			t.Fatal(err)
		}
	}
	warm := mustOpen(t, WithDir(dir))
	warm.cap = 1
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 * n {
				k := (i*(g+1) + g) % n
				got, ok := warm.GetSim(keys[k])
				if !ok || !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d, key %d: GetSim = %+v, %v; want %+v", g, k, got, ok, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := warm.Stats(); st.Misses != 0 || st.Corrupt != 0 || st.DiskHits < n {
		t.Fatalf("stats %s: want no miss and at least %d disk hits", st, n)
	}
}

// TestChaosSeesEveryDiskRead arms a read rule that fires on every cache
// read and checks that each disk lookup, and only those, reached it.
func TestChaosSeesEveryDiskRead(t *testing.T) {
	dir := t.TempDir()
	cold := mustOpen(t, WithDir(dir))
	keys := []Key{testKey("seen-a", core.Type1), testKey("seen-b", core.Type2)}
	for _, k := range keys {
		if err := cold.PutSim(k, fakeResult(k.Trace, k.RMWType)); err != nil {
			t.Fatal(err)
		}
	}
	in := armChaos(t, chaos.Spec{Rules: []chaos.Rule{{Hook: chaos.HookCacheRead, Kind: chaos.KindDelay, DelayMS: 1}}})
	in.Sleep = func(time.Duration) {}
	warm := mustOpen(t, WithDir(dir))
	warm.cap = 1
	for i := range 6 {
		if _, ok := warm.GetSim(keys[i%2]); !ok {
			t.Fatalf("lookup %d missed", i)
		}
	}
	if _, ok := warm.GetSim(keys[1]); !ok { // a memory hit reads no file
		t.Fatal("memory lookup missed")
	}
	if fired := in.Fired(); fired[0] != 6 {
		t.Fatalf("the read hook saw %d reads, want 6", fired[0])
	}
	if st := warm.Stats(); st.DiskHits != 6 || st.MemoryHits != 1 {
		t.Fatalf("stats %s, want 6 disk hits and 1 memory hit", st)
	}
}

// TestUnreadableEntriesAreMisses puts what cannot be read where an entry
// belongs (nothing, a directory, a symlink loop, and, when the test runs
// unprivileged, a file without read permission): each lookup is a plain
// miss, not a corrupt entry, and nothing is deleted.
func TestUnreadableEntriesAreMisses(t *testing.T) {
	for _, tc := range []struct {
		name         string
		unprivileged bool // root reads the file regardless
		plant        func(path string) error
	}{
		{"missing", false, func(string) error { return nil }},
		{"directory", false, func(path string) error { return os.Mkdir(path, 0o755) }},
		{"symlink loop", false, func(path string) error { return os.Symlink(filepath.Base(path), path) }},
		{"no read permission", true, func(path string) error { return os.WriteFile(path, []byte(entryMagic), 0o200) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.unprivileged && os.Geteuid() == 0 {
				t.Skip("permissions do not stop root")
			}
			dir := t.TempDir()
			c := mustOpen(t, WithDir(dir))
			k := testKey("unreadable", core.Type2)
			path := c.path(k.Digest())
			if err := tc.plant(path); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.GetSim(k); ok {
				t.Fatal("lookup hit")
			}
			if st := c.Stats(); st.Misses != 1 || st.Corrupt != 0 || st.DeleteErrors != 0 {
				t.Fatalf("stats %s, want one plain miss", st)
			}
			if _, err := os.Lstat(path); tc.name != "missing" && err != nil {
				t.Fatalf("the unreadable entry was removed: %v", err)
			}
		})
	}
}
