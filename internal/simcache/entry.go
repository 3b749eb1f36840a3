package simcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// A disk entry is, in order:
//
//	entryMagic                          a text line naming the byte layout
//	uvarint length, Key.Canonical()     the key the entry was stored under
//	32 bytes                            the SHA-256 of the payload
//	payload                             the sim.Result, to the end of the file
//
// The payload holds sim.Result's fields in declaration order: unsigned
// integers as uvarints, int fields as zig-zag varints, strings as a
// uvarint length and their bytes, bools as one byte (0 or 1), and PerCore
// as a uvarint count followed by each CoreStats' fields in declaration
// order. A reader accepts only minimal varints and no trailing bytes, so
// an accepted payload is exactly what appendResult writes for the result
// it decodes to.
//
// The canonical key carries SchemaVersion and every key field, so one
// string comparison checks them all. The checksum catches damage, not
// forgery: a hand-made file can carry a valid one, so the decoder checks
// every count against the bytes that remain before allocating for it.

// entryMagic is the first line of every disk entry. Any change to the
// entry layout must change it, so that files of another layout are
// rejected (and rewritten) rather than misread.
const entryMagic = "rmwtso-simcache-bin/1\n"

// entryExt names disk entries (<digest>.bin). legacyEntryExt named the
// JSON entries of earlier builds: no lookup opens them, and Clear deletes
// them.
const (
	entryExt       = ".bin"
	legacyEntryExt = ".json"
)

// coreStatsFields is the number of fields of sim.CoreStats: Core, then
// the counters coreCounters lists. Each takes at least one byte, which
// bounds how many CoreStats the bytes left can hold.
const coreStatsFields = 14

// coreCounters lists a CoreStats' unsigned fields in declaration order,
// the one order both the encoder and the decoder walk.
func coreCounters(c *sim.CoreStats) [coreStatsFields - 1]*uint64 {
	return [...]*uint64{
		&c.Cycles, &c.Reads, &c.Writes, &c.RMWs, &c.Fences, &c.Computes,
		&c.RMWsCompleted, &c.RMWWriteBufferCycles, &c.RMWRaWaCycles,
		&c.RMWReverts, &c.RMWBroadcasts, &c.ReadStallCycles, &c.WriteStallCycles,
	}
}

// encodeEntry builds the disk entry of a result stored under the key
// whose canonical serialization is canonical.
func encodeEntry(canonical []byte, r *sim.Result) []byte {
	payload := appendResult(nil, r)
	sum := sha256.Sum256(payload)
	b := make([]byte, 0, len(entryMagic)+binary.MaxVarintLen64+len(canonical)+len(sum)+len(payload))
	b = append(b, entryMagic...)
	b = binary.AppendUvarint(b, uint64(len(canonical)))
	b = append(b, canonical...)
	b = append(b, sum[:]...)
	return append(b, payload...)
}

// decodeEntry verifies an entry read from disk against the canonical
// serialization of the key that addressed it (magic line, key, payload
// checksum) and decodes its payload. The result shares no memory with
// data, so the caller may reuse data's buffer at once.
func decodeEntry(data, canonical []byte) (*sim.Result, error) {
	rest, ok := bytes.CutPrefix(data, []byte(entryMagic))
	if !ok {
		return nil, fmt.Errorf("simcache: entry does not start with %q", entryMagic)
	}
	n, i := uvarint(rest, 0)
	if i < 0 || n > uint64(len(rest)-i) || len(rest)-i-int(n) < sha256.Size {
		return nil, fmt.Errorf("simcache: short entry header: %w", errMalformed)
	}
	key, rest := rest[i:i+int(n)], rest[i+int(n):]
	if !bytes.Equal(key, canonical) {
		return nil, errors.New("simcache: entry key mismatch (corrupt or colliding entry)")
	}
	sum, payload := rest[:sha256.Size], rest[sha256.Size:]
	if got := sha256.Sum256(payload); !bytes.Equal(got[:], sum) {
		return nil, errors.New("simcache: payload checksum mismatch")
	}
	return decodeResult(payload)
}

// appendResult appends the payload encoding of r to b.
func appendResult(b []byte, r *sim.Result) []byte {
	b = binary.AppendUvarint(b, uint64(len(r.Workload)))
	b = append(b, r.Workload...)
	b = binary.AppendVarint(b, int64(r.RMWType))
	b = binary.AppendUvarint(b, r.Cycles)
	b = binary.AppendUvarint(b, uint64(len(r.PerCore)))
	for i := range r.PerCore {
		c := &r.PerCore[i]
		b = binary.AppendVarint(b, int64(c.Core))
		for _, f := range coreCounters(c) {
			b = binary.AppendUvarint(b, *f)
		}
	}
	b = binary.AppendUvarint(b, r.Broadcasts)
	b = binary.AppendVarint(b, int64(r.UniqueRMWs))
	deadlocked := byte(0)
	if r.Deadlocked {
		deadlocked = 1
	}
	b = append(b, deadlocked)
	return binary.AppendUvarint(b, r.DirectoryLockDenials)
}

// decodeResult decodes a payload written by appendResult, walking it by
// index. An empty PerCore decodes as nil. Any short, overflowing or
// non-minimal varint, a bool other than 0 or 1, and any trailing byte
// reject the payload with errMalformed.
func decodeResult(p []byte) (*sim.Result, error) {
	r := &sim.Result{}
	n, i := uvarint(p, 0)
	if i < 0 || n > uint64(len(p)-i) {
		return nil, errMalformed
	}
	r.Workload = string(p[i : i+int(n)])
	i += int(n)
	typ, i := intAt(p, i)
	if i < 0 {
		return nil, errMalformed
	}
	r.RMWType = core.AtomicityType(typ)
	if r.Cycles, i = uvarint(p, i); i < 0 {
		return nil, errMalformed
	}
	if n, i = uvarint(p, i); i < 0 {
		return nil, errMalformed
	}
	if n > 0 {
		if n > uint64(len(p)-i)/coreStatsFields {
			return nil, fmt.Errorf("%w: %d cores in %d bytes", errMalformed, n, len(p)-i)
		}
		r.PerCore = make([]sim.CoreStats, n)
		for c := range r.PerCore {
			cs := &r.PerCore[c]
			if cs.Core, i = intAt(p, i); i < 0 {
				return nil, errMalformed
			}
			for _, f := range coreCounters(cs) {
				if *f, i = uvarint(p, i); i < 0 {
					return nil, errMalformed
				}
			}
		}
	}
	if r.Broadcasts, i = uvarint(p, i); i < 0 {
		return nil, errMalformed
	}
	if r.UniqueRMWs, i = intAt(p, i); i < 0 {
		return nil, errMalformed
	}
	if i >= len(p) || p[i] > 1 {
		return nil, errMalformed
	}
	r.Deadlocked = p[i] == 1
	if r.DirectoryLockDenials, i = uvarint(p, i+1); i < 0 {
		return nil, errMalformed
	}
	if i < len(p) {
		return nil, fmt.Errorf("%w: %d trailing bytes", errMalformed, len(p)-i)
	}
	return r, nil
}

// errMalformed reports a payload or header that is short, overflows, or
// is not the minimal encoding of its values.
var errMalformed = errors.New("simcache: malformed entry")

// uvarint decodes the minimal uvarint at p[i:] and returns it with the
// index just past it. A varint cut off at the end of p, one longer than
// ten bytes or above 2^64-1, and one with a zero last byte after its
// first (not minimal) return a negative index.
func uvarint(p []byte, i int) (uint64, int) {
	var v uint64
	for s := uint(0); i < len(p); s += 7 {
		c := p[i]
		i++
		if c < 0x80 {
			// The tenth byte holds only bit 63.
			if s == 63 && c > 1 || s > 0 && c == 0 {
				return 0, -1
			}
			return v | uint64(c)<<s, i
		}
		if s == 63 {
			return 0, -1
		}
		v |= uint64(c&0x7f) << s
	}
	return 0, -1
}

// intAt decodes the zig-zag varint at p[i:], which must fit an int, and
// returns it with the index just past it (negative on failure).
func intAt(p []byte, i int) (int, int) {
	u, i := uvarint(p, i)
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	if int64(int(v)) != v {
		return 0, -1
	}
	return int(v), i
}
