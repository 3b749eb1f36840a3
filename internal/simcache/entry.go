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
// checksum) and decodes its payload.
func decodeEntry(data, canonical []byte) (*sim.Result, error) {
	rest, ok := bytes.CutPrefix(data, []byte(entryMagic))
	if !ok {
		return nil, fmt.Errorf("simcache: entry does not start with %q", entryMagic)
	}
	d := decoder{b: rest}
	key := d.bytes(d.uvarint())
	sum := d.bytes(sha256.Size)
	if d.err != nil {
		return nil, fmt.Errorf("simcache: short entry header: %w", d.err)
	}
	if !bytes.Equal(key, canonical) {
		return nil, errors.New("simcache: entry key mismatch (corrupt or colliding entry)")
	}
	if got := sha256.Sum256(d.b); !bytes.Equal(got[:], sum) {
		return nil, errors.New("simcache: payload checksum mismatch")
	}
	return decodeResult(d.b)
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

// decodeResult decodes a payload written by appendResult. An empty
// PerCore decodes as nil.
func decodeResult(payload []byte) (*sim.Result, error) {
	d := decoder{b: payload}
	r := &sim.Result{}
	r.Workload = string(d.bytes(d.uvarint()))
	r.RMWType = core.AtomicityType(d.int())
	r.Cycles = d.uvarint()
	if n := d.uvarint(); n > 0 {
		if n > uint64(len(d.b))/coreStatsFields {
			return nil, fmt.Errorf("%w: %d cores in %d bytes", errMalformed, n, len(d.b))
		}
		r.PerCore = make([]sim.CoreStats, n)
		for i := range r.PerCore {
			c := &r.PerCore[i]
			c.Core = d.int()
			for _, f := range coreCounters(c) {
				*f = d.uvarint()
			}
		}
	}
	r.Broadcasts = d.uvarint()
	r.UniqueRMWs = d.int()
	r.Deadlocked = d.bool()
	r.DirectoryLockDenials = d.uvarint()
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%w: %d trailing bytes", errMalformed, len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

// errMalformed reports a payload or header that is short, overflows, or
// is not the minimal encoding of its values.
var errMalformed = errors.New("simcache: malformed entry")

// decoder reads an entry front to back. The first bad read sets err, and
// every later read returns a zero value, so a caller checks err once.
type decoder struct {
	b   []byte
	err error
}

// uvarint reads a minimal uvarint.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	// n <= 0 is a short or overflowing varint; a zero last byte after the
	// first is a non-minimal one.
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.err = errMalformed
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int reads a zig-zag varint that fits an int.
func (d *decoder) int() int {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	if int64(int(v)) != v {
		d.err = errMalformed
		return 0
	}
	return int(v)
}

// bytes reads the next n bytes, failing when fewer remain. The result
// aliases the entry.
func (d *decoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.err = errMalformed
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

// bool reads one byte that must be 0 or 1.
func (d *decoder) bool() bool {
	b := d.bytes(1)
	if d.err != nil {
		return false
	}
	if b[0] > 1 {
		d.err = errMalformed
		return false
	}
	return b[0] == 1
}
