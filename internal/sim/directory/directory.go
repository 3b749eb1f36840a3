// Package directory implements the distributed MOESI directory protocol of
// the simulated chip multiprocessor, including the cache-line locking used
// by RMW implementations (§3) and the directory locking optimization of the
// type-3 RMW (§3.3).
//
// The directory is the timing model's source of truth for where each cache
// line lives (owning core, sharer set, presence in the shared L2) and for
// which lines are currently locked by an in-flight RMW. Requests are typed
// records: Access grants a request at its issue cycle -- applying its MOESI
// transition, and its line lock if it asks for one, right then -- and
// returns the cycle its response arrives. A request that targets a line
// locked by another core is denied and parked on the lock as a Waiter;
// Unlock hands the parked records back, in arrival order, for the caller to
// resume. That is exactly the "deny coherence requests until the write of
// the RMW completes" behaviour of the paper.
package directory

import (
	"fmt"
	"math/bits"

	"repro/internal/sim/cache"
	"repro/internal/sim/mesh"
)

// ReqKind is the kind of coherence request.
type ReqKind int

const (
	// GetS requests read permission (a shared copy).
	GetS ReqKind = iota
	// GetM requests write permission (an exclusive copy, invalidating other
	// sharers).
	GetM
)

// String renders the request kind.
func (k ReqKind) String() string {
	switch k {
	case GetS:
		return "GetS"
	case GetM:
		return "GetM"
	default:
		return fmt.Sprintf("ReqKind(%d)", int(k))
	}
}

// Latencies holds the fixed access latencies of the memory hierarchy
// (Table 2 of the paper).
type Latencies struct {
	// L1 is the hit latency of the private L1 cache.
	L1 uint64
	// L2 is the hit latency of a shared L2 bank.
	L2 uint64
	// Mem is the main-memory access latency.
	Mem uint64
	// LockRetry is the extra delay charged when a request was denied
	// because its line was locked and had to be retried after the unlock.
	LockRetry uint64
}

// Stats counts directory activity.
type Stats struct {
	GetS          uint64
	GetM          uint64
	L1Hits        uint64
	L2Hits        uint64
	MemAccesses   uint64
	OwnerForwards uint64
	Invalidations uint64
	LockDenials   uint64
	Locks         uint64
	Unlocks       uint64
}

// Request is one coherence request.
type Request struct {
	// Core issues the request for Line.
	Core int
	Line uint64
	// Kind is the permission asked for.
	Kind ReqKind
	// Start is the cycle the request is issued.
	Start uint64
	// Lock asks for the line to be locked for Core as part of the grant:
	// the read half of an RMW.
	Lock bool
	// Tag is opaque to the directory; the caller uses it to resume the
	// request's continuation.
	Tag uint64
}

// Waiter is a request parked on a locked line.
type Waiter struct {
	Request
	// Drain marks a write-buffer drain parked by WaitForUnlock; otherwise
	// the waiter is an Access that was denied.
	Drain bool
}

// lineMeta is the directory's view of one cache line.
type lineMeta struct {
	sharers []uint64 // bitset of the cores holding a copy
	lock    lineLock
	owner   int32 // core holding the line in M/E/O, or -1
	inL2    bool
}

// lineLock marks a line locked by in-flight RMWs of one core: the line is
// locked while depth is positive. depth counts the owner's outstanding
// locks: a weak RMW retires before its write half drains, so with deadlock
// avoidance disabled its core can lock the line again while the first
// write is still buffered.
type lineLock struct {
	waiters      []Waiter
	owner, depth int32
}

// lockedBy reports whether the line is locked by a core other than c.
func (m *lineMeta) lockedBy(c int) bool {
	return m.lock.depth > 0 && int(m.lock.owner) != c
}

// hasSharer, addSharer and dropSharer read and edit the sharer bitset.
func (m *lineMeta) hasSharer(c int) bool { return m.sharers[c/64]&(1<<(c%64)) != 0 }
func (m *lineMeta) addSharer(c int)      { m.sharers[c/64] |= 1 << (c % 64) }
func (m *lineMeta) dropSharer(c int)     { m.sharers[c/64] &^= 1 << (c % 64) }

// anySharer reports whether any core holds a copy.
func (m *lineMeta) anySharer() bool {
	for _, w := range m.sharers {
		if w != 0 {
			return true
		}
	}
	return false
}

// lineTable maps line addresses to their records: open addressing with a
// Fibonacci hash and linear probing, at most half full, doubling when it
// would pass that. Its slots point into the directory's record slabs, so
// a record stays where it is when the table grows.
type lineTable struct {
	slots []lineSlot
	shift uint // 64 - log2(len(slots))
	used  int
}

type lineSlot struct {
	line uint64
	m    *lineMeta // nil marks an empty slot
}

// initialLineSlots is the table's starting size, a power of two.
const initialLineSlots = 1024

func newLineTable() lineTable {
	return lineTable{slots: make([]lineSlot, initialLineSlots), shift: 64 - uint(bits.TrailingZeros(initialLineSlots))}
}

// home is the line's first probe position.
func (t *lineTable) home(line uint64) uint64 { return (line * 0x9E3779B97F4A7C15) >> t.shift }

// find returns the line's record, or nil when it has none.
func (t *lineTable) find(line uint64) *lineMeta {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(line); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.m == nil || s.line == line {
			return s.m
		}
	}
}

// insert adds a record for a line that has none.
func (t *lineTable) insert(line uint64, m *lineMeta) {
	if 2*(t.used+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]lineSlot, 2*len(old))
		t.shift--
		for _, s := range old {
			if s.m != nil {
				t.place(s)
			}
		}
	}
	t.place(lineSlot{line: line, m: m})
	t.used++
}

func (t *lineTable) place(s lineSlot) {
	mask := uint64(len(t.slots) - 1)
	i := t.home(s.line)
	for t.slots[i].m != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// lockHints is how many buckets the locked lines are counted in, by their
// low address bits; a power of two.
const lockHints = 1024

// Directory is the distributed directory plus the per-core L1 caches it
// keeps coherent.
type Directory struct {
	mesh   *mesh.Topology
	caches []*cache.Cache
	lat    Latencies

	lines lineTable
	// metaSlab and wordSlab are the unused tails of the chunks new lines'
	// records and sharer bitsets are cut from.
	metaSlab []lineMeta
	wordSlab []uint64
	words    int // sharer bitset words per line
	// lockHint counts the locked lines by line%lockHints: a request whose
	// count is zero targets an unlocked line, so it need not look the line
	// up to learn that.
	lockHint [lockHints]uint32

	stats Stats
}

// slabLines is how many line records one allocation chunk holds.
const slabLines = 256

// New builds a directory for the given mesh and per-core L1 caches. The
// number of caches must equal the number of mesh nodes.
func New(m *mesh.Topology, caches []*cache.Cache, lat Latencies) *Directory {
	if len(caches) != m.Nodes() {
		panic(fmt.Sprintf("directory: %d caches for %d nodes", len(caches), m.Nodes()))
	}
	return &Directory{
		mesh:   m,
		caches: caches,
		lat:    lat,
		lines:  newLineTable(),
		words:  (len(caches) + 63) / 64,
	}
}

// Stats returns a copy of the activity counters.
func (d *Directory) Stats() Stats { return d.stats }

// Cache returns core c's L1 cache.
func (d *Directory) Cache(c int) *cache.Cache { return d.caches[c] }

// meta returns the line's record, creating it on first use.
func (d *Directory) meta(line uint64) *lineMeta {
	if m := d.lines.find(line); m != nil {
		return m
	}
	if len(d.metaSlab) == 0 {
		d.metaSlab = make([]lineMeta, slabLines)
		d.wordSlab = make([]uint64, slabLines*d.words)
	}
	m := &d.metaSlab[0]
	d.metaSlab = d.metaSlab[1:]
	m.owner = -1
	m.sharers = d.wordSlab[:d.words:d.words]
	d.wordSlab = d.wordSlab[d.words:]
	d.lines.insert(line, m)
	return m
}

// mayBeLocked reports whether the line can be locked: false means it is
// not, without looking it up.
func (d *Directory) mayBeLocked(line uint64) bool { return d.lockHint[line%lockHints] != 0 }

// IsLocked reports whether the line is currently locked, and by which core.
func (d *Directory) IsLocked(line uint64) (bool, int) {
	if m := d.lines.find(line); m != nil && m.lock.depth > 0 {
		return true, int(m.lock.owner)
	}
	return false, -1
}

// LockedLines returns the number of currently locked lines.
func (d *Directory) LockedLines() int {
	n := 0
	for _, h := range d.lockHint {
		n += int(h)
	}
	return n
}

// CheckLockCounts recounts the locked lines from every line record and
// returns an error when a lock-hint count disagrees. It walks the whole
// table, so it is for tests that check invariants.
func (d *Directory) CheckLockCounts() error {
	var hint [lockHints]uint32
	for _, s := range d.lines.slots {
		if s.m != nil && s.m.lock.depth > 0 {
			hint[s.line%lockHints]++
		}
	}
	for i := range hint {
		if hint[i] != d.lockHint[i] {
			return fmt.Errorf("directory: %d locked lines in lock-hint bucket %d, counted %d", hint[i], i, d.lockHint[i])
		}
	}
	return nil
}

// Access issues a coherence request at r.Start. A request to a line locked
// by another core is denied: it is counted as a lock denial, parked on the
// lock, and Access reports granted=false; Unlock hands it back. Requests by
// the lock owner itself proceed normally.
//
// A granted request takes effect at its issue cycle: the directory and
// cache state make the request's MOESI transition, and a request with Lock
// set locks the line for its core, before Access returns. done is the
// cycle the response arrives at the requester.
func (d *Directory) Access(r Request) (done uint64, granted bool) {
	// The record is looked up only when the request needs it: to check a
	// possible lock, for a GetM, or to lock the line. A GetS looks it up
	// itself on a miss, so a read hit on an unlocked line never does.
	var m *lineMeta
	if r.Kind == GetM || r.Lock || d.mayBeLocked(r.Line) {
		m = d.meta(r.Line)
		if m.lockedBy(r.Core) {
			d.stats.LockDenials++
			m.lock.waiters = append(m.lock.waiters, Waiter{Request: r})
			return 0, false
		}
	}
	var latency uint64
	switch r.Kind {
	case GetS:
		latency = d.getS(r.Core, r.Line, m)
	case GetM:
		latency = d.getM(r.Core, r.Line, m)
	default:
		panic(fmt.Sprintf("directory: unknown request kind %d", int(r.Kind)))
	}
	if r.Lock {
		// Access already serializes on the lock, so the line is either
		// unlocked or locked by this core. It is locked by this core when
		// an earlier weak RMW of the core on the same line retired but its
		// write half has not drained yet, which only the naive protocol
		// (deadlock avoidance disabled) allows; lock counts that re-entry.
		d.lock(m, r.Line, r.Core)
	}
	return r.Start + latency, true
}

// Lock marks the line locked by the core. Locks are counted: locking a
// line the same core already holds nests, and each Lock needs its own
// Unlock. Locking a line locked by another core is a protocol bug and
// panics.
func (d *Directory) Lock(line uint64, core int) {
	d.lock(d.meta(line), line, core)
}

func (d *Directory) lock(m *lineMeta, line uint64, core int) {
	d.stats.Locks++
	l := &m.lock
	if l.depth > 0 {
		if int(l.owner) != core {
			panic(fmt.Sprintf("directory: core %d locking line %#x already locked by core %d", core, line, l.owner))
		}
		l.depth++
		return
	}
	l.owner, l.depth = int32(core), 1
	d.lockHint[line%lockHints]++
}

// WaitForUnlock parks r until the line's lock, held by a core other than
// r.Core, is released, and reports whether such a lock was present. When it
// returns false nothing was parked and the caller may proceed. This is the
// completion-time denial used by the write-buffer drain: a write whose
// ownership response arrives while the line is locked by another
// processor's RMW is held back and retried after the unlock.
func (d *Directory) WaitForUnlock(r Request) bool {
	if !d.mayBeLocked(r.Line) {
		return false
	}
	m := d.lines.find(r.Line)
	if m == nil || !m.lockedBy(r.Core) {
		return false
	}
	d.stats.LockDenials++
	m.lock.waiters = append(m.lock.waiters, Waiter{Request: r, Drain: true})
	return true
}

// Unlock releases one of the core's locks on the line at the given time.
// The last release frees the line and returns the requests parked on it,
// in arrival order, each with Start set to the cycle it retries at: a
// denied Access at max(at+LockRetry, its Start), a parked drain at
// at+LockRetry. The caller resumes them; the returned slice is the
// caller's, and the lock starts a fresh waiter list, so a resumed request
// that locks the line again cannot overwrite the ones not yet resumed.
// Unlocking a line that is not locked by the core is a protocol bug and
// panics.
func (d *Directory) Unlock(line uint64, core int, at uint64) []Waiter {
	m := d.lines.find(line)
	if m == nil || m.lock.depth == 0 {
		panic(fmt.Sprintf("directory: core %d unlocking line %#x which is not locked", core, line))
	}
	l := &m.lock
	if int(l.owner) != core {
		panic(fmt.Sprintf("directory: core %d unlocking line %#x locked by core %d", core, line, l.owner))
	}
	d.stats.Unlocks++
	if l.depth--; l.depth > 0 {
		return nil
	}
	d.lockHint[line%lockHints]--
	waiters := l.waiters
	l.waiters = nil
	for i := range waiters {
		w := &waiters[i]
		retry := at + d.lat.LockRetry
		if !w.Drain && retry < w.Start {
			retry = w.Start
		}
		w.Start = retry
	}
	return waiters
}

// getS computes the latency of a read-permission request and updates the
// directory and cache state. m is the line's record, or nil when the
// caller has not looked it up.
func (d *Directory) getS(core int, line uint64, m *lineMeta) uint64 {
	d.stats.GetS++
	c := d.caches[core]

	// Local hit in any valid state.
	if c.Lookup(line).CanRead() {
		d.stats.L1Hits++
		return d.lat.L1
	}
	if m == nil {
		m = d.meta(line)
	}

	home := d.mesh.Home(line)
	reqToHome := d.mesh.Latency(core, home)
	var latency uint64
	switch owner := int(m.owner); {
	case owner >= 0 && owner != core:
		// Owner forwards the data: requester -> home -> owner -> requester.
		d.stats.OwnerForwards++
		latency = reqToHome + d.mesh.Latency(home, owner) + d.lat.L1 + d.mesh.Latency(owner, core)
		// The owner keeps a dirty copy in Owned state.
		d.caches[owner].SetState(line, cache.Owned)
	case m.inL2 || m.anySharer():
		d.stats.L2Hits++
		latency = reqToHome + d.lat.L2 + d.mesh.Latency(home, core)
	default:
		d.stats.MemAccesses++
		latency = reqToHome + d.lat.Mem + d.mesh.Latency(home, core)
		m.inL2 = true
	}
	m.addSharer(core)
	d.insertLocal(core, line, cache.Shared)
	return d.lat.L1 + latency
}

// getM computes the latency of a write-permission request and updates the
// directory and cache state, invalidating other copies.
func (d *Directory) getM(core int, line uint64, m *lineMeta) uint64 {
	d.stats.GetM++
	c := d.caches[core]

	// Local hit with write permission.
	if c.Lookup(line).CanWrite() && int(m.owner) == core {
		d.stats.L1Hits++
		return d.lat.L1
	}

	home := d.mesh.Home(line)
	reqToHome := d.mesh.Latency(core, home)
	var latency uint64
	switch owner := int(m.owner); {
	case owner >= 0 && owner != core:
		// Fetch from the remote owner and invalidate it.
		d.stats.OwnerForwards++
		d.stats.Invalidations++
		latency = reqToHome + d.mesh.Latency(home, owner) + d.lat.L1 + d.mesh.Latency(owner, core)
		d.caches[owner].Invalidate(line)
		m.dropSharer(owner)
	case m.inL2 || m.anySharer():
		d.stats.L2Hits++
		latency = reqToHome + d.lat.L2 + d.mesh.Latency(home, core)
	default:
		d.stats.MemAccesses++
		latency = reqToHome + d.lat.Mem + d.mesh.Latency(home, core)
		m.inL2 = true
	}

	// Invalidate all other sharers; the invalidations and acknowledgements
	// overlap, so only the farthest sharer adds latency (the round trip
	// from the home node, as in mesh.MultiCastLatency).
	var inval uint64
	for w, word := range m.sharers {
		for ; word != 0; word &= word - 1 {
			s := w*64 + bits.TrailingZeros64(word)
			if s == core {
				continue
			}
			d.caches[s].Invalidate(line)
			d.stats.Invalidations++
			if s == home {
				continue
			}
			if rt := d.mesh.RoundTrip(home, s); rt > inval {
				inval = rt
			}
		}
		m.sharers[w] = 0
	}
	latency += inval

	m.owner = int32(core)
	m.addSharer(core)
	d.insertLocal(core, line, cache.Modified)
	return d.lat.L1 + latency
}

// insertLocal places the line into the requester's L1 and propagates any
// capacity eviction back into the directory state.
func (d *Directory) insertLocal(core int, line uint64, st cache.State) {
	evicted, did := d.caches[core].Insert(line, st)
	if !did {
		return
	}
	em := d.lines.find(evicted)
	em.dropSharer(core)
	if int(em.owner) == core {
		em.owner = -1
		em.inL2 = true // dirty lines are written back to the L2
	}
	// A line no core holds may still be in the L2; inL2 stays as is.
}

// Owner returns the core owning the line (holding it in M/E/O), or -1.
func (d *Directory) Owner(line uint64) int {
	if m := d.lines.find(line); m != nil {
		return int(m.owner)
	}
	return -1
}

// Sharers returns the cores holding a copy of the line, in ascending
// order.
func (d *Directory) Sharers(line uint64) []int {
	m := d.lines.find(line)
	if m == nil {
		return nil
	}
	var out []int
	for c := range d.caches {
		if m.hasSharer(c) {
			out = append(out, c)
		}
	}
	return out
}

// HasLocalCopy reports whether the core holds a readable copy of the line,
// without touching LRU state. Used by the type-3 RMW implementation to
// decide between local locking and directory locking.
func (d *Directory) HasLocalCopy(core int, line uint64) bool {
	return d.caches[core].Peek(line).CanRead()
}
