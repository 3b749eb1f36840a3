package simcache

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
)

// FuzzDecodeEntry feeds arbitrary bytes to the entry decoding a GetSim
// applies to a file read from disk (envelope check against the key that
// addressed it, then the payload into a sim.Result). Decoding must never
// panic; an accepted entry must re-encode under the same key to one that
// decodes to an equal result.
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
	other, err := encodeEntry(testKey("other", core.Type2), fakeResult("other", core.Type2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(other)

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeEntry(data, key)
		if err != nil {
			return // rejected entries just must not panic
		}
		again, err := encodeEntry(key, res)
		if err != nil {
			t.Fatalf("re-encoding an accepted entry: %v", err)
		}
		back, err := decodeEntry(again, key)
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v", err)
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("re-encoded entry decodes to %+v, want %+v", back, res)
		}
	})
}
