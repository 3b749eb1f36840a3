// Package simcache is a two-tier, content-addressed cache of simulator
// results, the one computation of the reproduction costly enough to
// replay. Each run is a pure function of its inputs (architectural
// configuration, workload identity, seed, scale, RMW type), so a result
// can be keyed by a canonical digest of those inputs and replayed instead
// of recomputed on repeated `cmd/experiments` invocations and CI reruns.
//
// The cache has an in-memory LRU tier (always on) and an optional on-disk
// tier (one binary file per entry under a cache directory, by default
// ~/.cache/rmwtso). The memory tier holds decoded *sim.Result values, so
// a memory hit is a map lookup; checksums and binary decoding exist only
// at the disk boundary. A disk entry is a magic line naming its byte
// layout, the full canonical key, a payload checksum and the result
// encoded field by field: any truncation, bit-flip or layout drift is
// detected on read, counted, the file deleted, and the lookup treated as
// a miss — never a panic, never a wrong table. Bumping SchemaVersion
// changes every key digest, and changing the layout changes the magic
// line, so stale entries are never misread.
//
// Results are shared, not copied: PutSim keeps the caller's pointer and
// every memory hit returns that same pointer to every caller. A result
// stored in or served by the cache is therefore immutable — no caller
// may write to it.
package simcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"

	"repro/internal/atomicio"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/sim"
)

// SchemaVersion versions the key derivation and the meaning of a cached
// result. It participates in every key's canonical string, so bumping it
// (which a change to sim.Config.Digest or to what a sim.Result records
// requires) re-keys every entry and orphans all previously written ones
// instead of misinterpreting them. How an entry's bytes are laid out on
// disk is versioned separately, by the entry's magic line (entryMagic):
// a layout change orphans old files without moving any key digest.
const SchemaVersion = 2

// memCapacity bounds the in-memory tier: past it, the least recently
// used entry is evicted.
const memCapacity = 512

// Key identifies one simulator run, and so its cached result, by the
// inputs that determine it. Every field participates in the canonical
// digest; the zero value of an unused field is simply part of the key.
type Key struct {
	// ConfigDigest is sim.Config.Digest() of the run's configuration.
	ConfigDigest string
	// Trace names the workload trace (including any replacement-variant
	// suffix).
	Trace string
	// Workload is the content digest of the workload behind the trace
	// name (workload.Source.WorkloadDigest: profile parameters plus
	// replacement variant), so a modified profile that kept a
	// benchmark's name can never alias the stock benchmark's entries.
	// Empty for sources without a workload identity (hand-built traces,
	// whose content is determined by name and cores).
	Workload string
	// Cores is the simulated core count (redundant with ConfigDigest for
	// simulator runs, kept so the canonical key, which every disk entry
	// stores in the clear, names it at a glance).
	Cores int
	// Seed is the workload generation seed.
	Seed int64
	// Scale is the normalized iteration-count scale factor.
	Scale float64
	// RMWType is the RMW atomicity type of the run.
	RMWType core.AtomicityType
}

// Canonical returns the canonical serialization of the key, the exact
// string whose SHA-256 is the entry's address. The schema version is part
// of the string, so a version bump re-keys everything.
func (k Key) Canonical() string {
	var buf [keyBufLen]byte
	return string(AppendCanonical(buf[:0], k))
}

// keyBufLen sizes the stack buffers keys are serialized into: a
// simulator run's canonical key, workload digest included, is 230 to 250
// bytes. A longer key still serializes, on the heap.
const keyBufLen = 320

// AppendCanonical appends the key's canonical serialization (the bytes
// of Canonical) to b: the fields in a fixed order, integers in decimal
// and the scale in strconv's shortest 'g' form. Callers that hash or
// frame many keys use it to serialize each key once, without a string.
// Every key names a simulator run, so the kind is the constant
// "sim-result"; it stays in the serialization because every stored key,
// digest and unit ID includes it.
func AppendCanonical(b []byte, k Key) []byte {
	b = append(b, "simcache/v"...)
	b = strconv.AppendInt(b, SchemaVersion, 10)
	b = append(b, "|kind=sim-result|cfg="...)
	b = append(b, k.ConfigDigest...)
	b = append(b, "|trace="...)
	b = append(b, k.Trace...)
	b = append(b, "|wl="...)
	b = append(b, k.Workload...)
	b = append(b, "|cores="...)
	b = strconv.AppendInt(b, int64(k.Cores), 10)
	b = append(b, "|seed="...)
	b = strconv.AppendInt(b, k.Seed, 10)
	b = append(b, "|scale="...)
	b = strconv.AppendFloat(b, k.Scale, 'g', -1, 64)
	b = append(b, "|rmw="...)
	return strconv.AppendInt(b, int64(k.RMWType), 10)
}

// Digest returns the hex-encoded SHA-256 of the canonical key string; it
// is the in-memory map key and the on-disk file name.
func (k Key) Digest() string {
	var buf [keyBufLen]byte
	return digestOf(AppendCanonical(buf[:0], k))
}

// digestOf returns the digest of a canonical key serialization.
func digestOf(canonical []byte) string {
	var hx [2 * sha256.Size]byte
	return string(appendDigest(hx[:0], canonical))
}

// appendDigest appends the hex digest of a canonical key serialization
// to b.
func appendDigest(b, canonical []byte) []byte {
	sum := sha256.Sum256(canonical)
	return hex.AppendEncode(b, sum[:])
}

// UnitIDLen is the length of a UnitID: a 16-hex-digit (64-bit) prefix of
// the key digest — short enough to read in shard listings, long enough
// that plan-sized unit sets (tens to thousands of units) never collide in
// practice. Plan construction still verifies uniqueness explicitly.
const UnitIDLen = 16

// UnitIDOf returns the short, stable identifier of the plan unit whose
// key's canonical serialization (AppendCanonical) is canonical: the first
// UnitIDLen hex digits of the key digest. Two runs with equal inputs
// share a unit ID on every machine and at every shard count, which is
// what lets sweep shards merge by identity.
func UnitIDOf(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	var hx [UnitIDLen]byte
	return string(hex.AppendEncode(hx[:0], sum[:UnitIDLen/2]))
}

// workloadIdentifier is implemented by trace sources (workload.Source)
// that can digest their generator parameters; sources without it are
// keyed by name alone.
type workloadIdentifier interface {
	WorkloadDigest() string
}

// SimKey derives the key of one simulator run from the run's effective
// configuration (with the RMW type already set), the trace source, and
// the workload seed and scale. The source contributes its name and —
// when it can identify its content (workload.Source) — a digest of the
// generator parameters, so renamed or hand-tuned profiles never alias.
// A non-positive scale is normalized to 1: the generator applies no
// scaling in either case, so both spellings must address the same entry.
func SimKey(cfg sim.Config, src sim.TraceSource, seed int64, scale float64) Key {
	return SimKeyOf(cfg, cfg.Digest(), src, seed, scale)
}

// SimKeyOf is SimKey with the configuration's digest (cfg.Digest())
// already taken, for a caller that keys many runs of one configuration:
// their keys then share one digest string.
func SimKeyOf(cfg sim.Config, cfgDigest string, src sim.TraceSource, seed int64, scale float64) Key {
	if scale <= 0 {
		scale = 1
	}
	k := Key{
		ConfigDigest: cfgDigest,
		Trace:        src.Name(),
		Cores:        cfg.Cores,
		Seed:         seed,
		Scale:        scale,
		RMWType:      cfg.RMWType,
	}
	if wi, ok := src.(workloadIdentifier); ok {
		k.Workload = wi.WorkloadDigest()
	}
	return k
}

// Stats count the cache's traffic. All counters are cumulative over the
// cache's lifetime (Clear does not reset them).
type Stats struct {
	// MemoryHits and DiskHits split the hits by serving tier.
	MemoryHits uint64
	DiskHits   uint64
	// Misses counts lookups served by neither tier (including entries
	// dropped as corrupt).
	Misses uint64
	// Stores counts PutSim calls; StoreErrors counts PutSim calls whose
	// disk write failed (the memory tier still holds them).
	Stores      uint64
	StoreErrors uint64
	// Corrupt counts disk entries rejected by the entry checks (a wrong
	// magic line, a different key, a payload checksum mismatch, a
	// malformed or short payload); each is deleted and counted as a miss.
	Corrupt uint64
	// DeleteErrors counts corrupt entries whose deletion itself failed
	// (e.g. a read-only cache directory). The entry stays on disk and the
	// lookup is still just a miss — a cache that cannot clean up must not
	// take the sweep down with it.
	DeleteErrors uint64
	// Evictions counts memory-tier entries displaced by the LRU bound.
	Evictions uint64
}

// Hits returns the total hits across both tiers.
func (s Stats) Hits() uint64 { return s.MemoryHits + s.DiskHits }

// String renders the counters as a one-line summary. Store errors are
// appended only when any occurred — they are the one counter that
// explains a cache that never warms (e.g. a read-only cache directory).
func (s Stats) String() string {
	out := fmt.Sprintf("%d hits (%d memory, %d disk), %d misses, %d stored, %d corrupt",
		s.Hits(), s.MemoryHits, s.DiskHits, s.Misses, s.Stores, s.Corrupt)
	if s.StoreErrors > 0 {
		out += fmt.Sprintf(", %d store errors (cache directory not writable?)", s.StoreErrors)
	}
	if s.DeleteErrors > 0 {
		out += fmt.Sprintf(", %d undeletable corrupt entries (cache directory not writable?)", s.DeleteErrors)
	}
	return out
}

// memEntry is one element of the LRU list.
type memEntry struct {
	digest string
	res    *sim.Result
}

// Cache is the two-tier result cache. It is safe for concurrent use; the
// worker pools of pkg/rmwtso share one Cache across all units.
type Cache struct {
	mu  sync.Mutex
	cap int // memCapacity; tests lower it
	dir string
	// prefix is what filepath.Join(dir, name) puts before a one-element
	// name, worked out once in Open so that a lookup appends to it.
	prefix string
	ll     *list.List               // front = most recently used
	items  map[string]*list.Element // digest -> element
	stats  Stats
}

// Option configures Open.
type Option func(*Cache)

// WithDir enables the on-disk tier rooted at dir (one binary file per
// entry). The empty string keeps the cache memory-only.
func WithDir(dir string) Option { return func(c *Cache) { c.dir = dir } }

// DefaultDir returns the default on-disk location: the "rmwtso"
// subdirectory of the user cache directory (~/.cache/rmwtso on Linux).
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("simcache: resolving the user cache directory: %w", err)
	}
	return filepath.Join(base, "rmwtso"), nil
}

// Open builds a cache from the options, creating the cache directory when
// a disk tier is configured. A memory-only Open never fails.
func Open(opts ...Option) (*Cache, error) {
	c := &Cache{cap: memCapacity, ll: list.New(), items: map[string]*list.Element{}}
	for _, f := range opts {
		f(c)
	}
	if c.dir != "" {
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return nil, fmt.Errorf("simcache: creating cache directory: %w", err)
		}
		p := filepath.Join(c.dir, "x")
		c.prefix = p[:len(p)-1]
	}
	return c, nil
}

// Dir returns the disk-tier directory ("" when memory-only).
func (c *Cache) Dir() string { return c.dir }

// Len returns the number of entries in the memory tier.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// path returns the disk-tier file of a key digest.
func (c *Cache) path(digest string) string {
	return c.prefix + digest + entryExt
}

// insertLocked puts a result into the memory tier under the digest,
// evicting from the LRU tail past the capacity bound.
func (c *Cache) insertLocked(digest string, r *sim.Result) {
	if el, ok := c.items[digest]; ok {
		el.Value.(*memEntry).res = r
		c.ll.MoveToFront(el)
		return
	}
	c.items[digest] = c.ll.PushFront(&memEntry{digest: digest, res: r})
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*memEntry).digest)
		c.stats.Evictions++
	}
}

// GetSim looks one simulator result up in the memory tier, then the disk
// tier. A memory hit returns the stored pointer itself: no checksum, no
// decode, no copy. A disk hit verifies the entry (magic line, embedded
// key, payload checksum), decodes the result once and promotes it into
// the memory tier. Corrupt disk entries (truncated, bit-flipped, another
// layout) are deleted and reported as misses.
//
// The returned result is shared with the cache and with every other
// caller of the same key, so it is immutable: callers must not write to
// it.
func (c *Cache) GetSim(k Key) (*sim.Result, bool) {
	// The key and its digest are built in stack buffers, so a memory hit
	// allocates nothing.
	var buf [keyBufLen]byte
	canonical := AppendCanonical(buf[:0], k)
	var hx [2 * sha256.Size]byte
	hexDigest := appendDigest(hx[:0], canonical)
	c.mu.Lock()
	if el, ok := c.items[string(hexDigest)]; ok {
		c.ll.MoveToFront(el)
		c.stats.MemoryHits++
		r := el.Value.(*memEntry).res
		c.mu.Unlock()
		return r, true
	}
	c.mu.Unlock()

	if c.dir == "" {
		c.countMiss()
		return nil, false
	}
	digest := string(hexDigest)
	path := c.path(digest)
	rb := readBufs.Get().(*[]byte)
	defer readBufs.Put(rb)
	data, err := readEntry(path, rb)
	if err != nil {
		c.countMiss()
		return nil, false
	}
	if in := chaos.Current(); in != nil {
		if data, err = in.OnRead(path, data); err != nil {
			c.countMiss()
			return nil, false
		}
	}
	r, err := decodeEntry(data, canonical)
	if err != nil {
		// Treat damage as a miss and remove the entry so the next run
		// rewrites it; never surface a partially decoded result. If even
		// the deletion fails (read-only cache dir), log and count it —
		// an uncleanable cache degrades to misses, it never fails a sweep.
		if rmErr := removeEntry(path); rmErr != nil && !os.IsNotExist(rmErr) {
			fmt.Fprintf(os.Stderr, "simcache: cannot delete corrupt entry %s: %v\n", path, rmErr)
			c.mu.Lock()
			c.stats.DeleteErrors++
			c.mu.Unlock()
		}
		c.mu.Lock()
		c.stats.Corrupt++
		c.stats.Misses++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Lock()
	c.insertLocked(digest, r)
	c.stats.DiskHits++
	c.mu.Unlock()
	return r, true
}

// readBufs holds the buffers disk lookups read entries into. A decoded
// result copies everything it keeps out of the buffer, so a buffer goes
// back to the pool as soon as its entry is decoded.
var readBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// readEntry reads the whole file at path into *buf, growing it as
// needed, and returns the bytes read. It calls the system directly
// rather than through os.ReadFile: an entry that fits the buffer costs
// four system calls (open, a read that takes the file, a read that finds
// its end, close), where os.ReadFile's file setup adds fcntl and epoll
// calls a regular file does not need. A missing or unreadable path and
// a directory return an error.
func readEntry(path string, buf *[]byte) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	b := (*buf)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
			*buf = b
		}
		n, err := syscall.Read(fd, b[len(b):cap(b)])
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return nil, err
		case n == 0:
			return b, nil
		}
		b = b[:len(b)+n]
	}
}

// removeEntry deletes a corrupt disk entry. A variable so tests can
// force the deletion failure a read-only cache directory produces even
// when the test runs as root (whom chmod does not stop).
var removeEntry = os.Remove

// countMiss bumps the miss counter.
func (c *Cache) countMiss() {
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
}

// PutSim stores one simulator result under the key: the memory tier
// keeps the caller's pointer, and when a disk tier is configured the
// result is encoded and written atomically (write-temp-then-rename). A
// disk write failure leaves the memory entry in place and is returned
// (and counted) so callers can treat persistence as best-effort.
//
// The cache takes shared ownership of r: from this call on, r is
// immutable, for the caller as much as for every later GetSim.
func (c *Cache) PutSim(k Key, r *sim.Result) error {
	var buf [keyBufLen]byte
	canonical := AppendCanonical(buf[:0], k)
	digest := digestOf(canonical)
	c.mu.Lock()
	c.insertLocked(digest, r)
	c.stats.Stores++
	c.mu.Unlock()

	if c.dir == "" {
		return nil
	}
	if err := c.writeFile(digest, encodeEntry(canonical, r)); err != nil {
		c.mu.Lock()
		c.stats.StoreErrors++
		c.mu.Unlock()
		return err
	}
	return nil
}

// writeFile writes entry bytes to the disk tier atomically (through the
// shared write-temp-then-rename helper), so concurrent readers only ever
// observe complete entries.
func (c *Cache) writeFile(digest string, data []byte) error {
	if err := atomicio.WriteFile(c.path(digest), data); err != nil {
		return fmt.Errorf("simcache: %w", err)
	}
	return nil
}

// Clear empties the memory tier and deletes every entry file of the disk
// tier, including the JSON entries of earlier layouts, which no lookup
// opens (stats are preserved; they count cumulative traffic).
func (c *Cache) Clear() error {
	c.mu.Lock()
	c.ll.Init()
	c.items = map[string]*list.Element{}
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	// Entry files, the legacy JSON entries, and any temp files orphaned
	// by interrupted writes.
	for _, pattern := range []string{"*" + entryExt, "*" + legacyEntryExt, ".tmp-*"} {
		matches, err := filepath.Glob(filepath.Join(c.dir, pattern))
		if err != nil {
			return fmt.Errorf("simcache: listing cache entries: %w", err)
		}
		for _, m := range matches {
			if err := os.Remove(m); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("simcache: clearing cache: %w", err)
			}
		}
	}
	return nil
}
