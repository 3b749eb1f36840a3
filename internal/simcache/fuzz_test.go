package simcache

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// FuzzDecodeEntry feeds arbitrary bytes to the entry decoding a GetSim
// applies to a file read from disk (magic line, key and checksum checks
// against the key that addressed it, then the payload into a
// sim.Result). Decoding must never panic; an accepted entry must
// re-encode under the same key to one that decodes to an equal result.
//
// The seed corpus is a real entry file as PutSim writes it, plus its
// truncations and an entry addressed by a different key.
func FuzzDecodeEntry(f *testing.F) {
	key := testKey("fuzz", core.Type2)
	dir := f.TempDir()
	c, err := Open(WithDir(dir))
	if err != nil {
		f.Fatal(err)
	}
	if err := c.PutSim(key, fakeResult("fuzz", core.Type2)); err != nil {
		f.Fatal(err)
	}
	entry, err := os.ReadFile(c.path(key.Digest()))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entry)
	for _, n := range []int{0, 1, len(entry) / 2, len(entry) - 1} {
		f.Add(entry[:n])
	}
	f.Add(encodeEntry([]byte(testKey("other", core.Type2).Canonical()), fakeResult("other", core.Type2)))

	canonical := []byte(key.Canonical())
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeEntry(data, canonical)
		if err != nil {
			return // rejected entries just must not panic
		}
		back, err := decodeEntry(encodeEntry(canonical, res), canonical)
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v", err)
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("re-encoded entry decodes to %+v, want %+v", back, res)
		}
	})
}

// FuzzDecodeResult feeds arbitrary bytes to the payload decoder itself,
// which FuzzDecodeEntry's checksum gate keeps mutated payloads from
// reaching. Decoding must never panic, and an accepted payload must be
// exactly the encoding of the result it decodes to (varints are minimal,
// bools 0 or 1, nothing trails), so re-encoding gives the input back and
// that decodes to an equal result.
func FuzzDecodeResult(f *testing.F) {
	full := fakeResult("fuzz", core.Type2)
	full.Deadlocked = true
	f.Add(appendResult(nil, full))
	f.Add(appendResult(nil, fakeResult("fuzz", core.Type3)))
	f.Add(appendResult(nil, &sim.Result{}))

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeResult(data)
		if err != nil {
			return // rejected payloads just must not panic
		}
		again := appendResult(nil, res)
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted payload %x re-encodes to %x", data, again)
		}
		back, err := decodeResult(again)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("re-encoded payload decodes to %+v, want %+v", back, res)
		}
	})
}
