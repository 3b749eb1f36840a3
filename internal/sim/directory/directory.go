// Package directory implements the distributed MOESI directory protocol of
// the simulated chip multiprocessor, including the cache-line locking used
// by RMW implementations (§3) and the directory locking optimization of the
// type-3 RMW (§3.3).
//
// The directory is the timing model's source of truth for where each cache
// line lives (owning core, sharer set, presence in the shared L2) and for
// which lines are currently locked by an in-flight RMW. Requests are
// expressed as continuations: Access computes when a request completes and
// invokes the caller's callback with that time; requests that target a
// locked line are parked on the lock and resumed when the lock is released,
// which is exactly the "deny coherence requests until the write of the RMW
// completes" behaviour of the paper.
package directory

import (
	"fmt"

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

// lineMeta is the directory's view of one cache line.
type lineMeta struct {
	owner   int // core holding the line in M/E/O, or -1
	sharers map[int]bool
	inL2    bool
}

// waiter is a parked request resumed when a line is unlocked.
type waiter func(unlockedAt uint64)

// lineLock marks a line locked by in-flight RMWs of one core. depth
// counts the owner's outstanding locks: a weak RMW retires before its
// write half drains, so with deadlock avoidance disabled its core can
// lock the line again while the first write is still buffered.
type lineLock struct {
	owner   int
	depth   int
	waiters []waiter
}

// Directory is the distributed directory plus the per-core L1 caches it
// keeps coherent.
type Directory struct {
	mesh   *mesh.Topology
	caches []*cache.Cache
	lat    Latencies

	lines map[uint64]*lineMeta
	locks map[uint64]*lineLock

	stats Stats
}

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
		lines:  map[uint64]*lineMeta{},
		locks:  map[uint64]*lineLock{},
	}
}

// Stats returns a copy of the activity counters.
func (d *Directory) Stats() Stats { return d.stats }

// Cache returns core c's L1 cache.
func (d *Directory) Cache(c int) *cache.Cache { return d.caches[c] }

func (d *Directory) meta(line uint64) *lineMeta {
	m, ok := d.lines[line]
	if !ok {
		m = &lineMeta{owner: -1, sharers: map[int]bool{}}
		d.lines[line] = m
	}
	return m
}

// IsLocked reports whether the line is currently locked, and by which core.
func (d *Directory) IsLocked(line uint64) (bool, int) {
	if l, ok := d.locks[line]; ok {
		return true, l.owner
	}
	return false, -1
}

// LockedLines returns the number of currently locked lines.
func (d *Directory) LockedLines() int { return len(d.locks) }

// Access issues a coherence request from core for the given line at time
// start and invokes complete with the completion time. Requests to a line
// locked by another core are parked until the lock is released (counted as
// a lock denial) and then charged the retry penalty plus their normal
// latency. Requests by the lock owner itself proceed normally.
func (d *Directory) Access(core int, line uint64, kind ReqKind, start uint64, complete func(at uint64)) {
	if l, ok := d.locks[line]; ok && l.owner != core {
		d.stats.LockDenials++
		l.waiters = append(l.waiters, func(unlockedAt uint64) {
			at := unlockedAt + d.lat.LockRetry
			if at < start {
				at = start
			}
			d.Access(core, line, kind, at, complete)
		})
		return
	}
	var latency uint64
	switch kind {
	case GetS:
		latency = d.getS(core, line)
	case GetM:
		latency = d.getM(core, line)
	default:
		panic(fmt.Sprintf("directory: unknown request kind %d", int(kind)))
	}
	complete(start + latency)
}

// AccessAndLock performs Access and atomically locks the line on behalf of
// the requesting core at the completion time, so that the RMW's read half
// can retire with the line locked. If another core locks the line first,
// the request waits for that lock like any other denied request.
func (d *Directory) AccessAndLock(core int, line uint64, kind ReqKind, start uint64, complete func(at uint64)) {
	d.Access(core, line, kind, start, func(at uint64) {
		// Between being parked and resumed another core can have locked the
		// line; Access already serializes on the lock, so here the line is
		// either unlocked or locked by us. It is locked by us when an
		// earlier weak RMW of this core on the same line retired but its
		// write half has not drained yet, which only the naive protocol
		// (deadlock avoidance disabled) allows; Lock counts that re-entry.
		d.Lock(line, core)
		complete(at)
	})
}

// Lock marks the line locked by the core. Locks are counted: locking a
// line the same core already holds nests, and each Lock needs its own
// Unlock. Locking a line locked by another core is a protocol bug and
// panics.
func (d *Directory) Lock(line uint64, core int) {
	d.stats.Locks++
	if l, ok := d.locks[line]; ok {
		if l.owner != core {
			panic(fmt.Sprintf("directory: core %d locking line %#x already locked by core %d", core, line, l.owner))
		}
		l.depth++
		return
	}
	d.locks[line] = &lineLock{owner: core, depth: 1}
}

// WaitForUnlock registers fn to run when the line's lock (held by a core
// other than the caller) is released, and reports whether such a lock was
// present. When it returns false, fn was not registered and the caller may
// proceed. This is the completion-time denial used by the write-buffer
// drain: a write whose ownership response arrives while the line is locked
// by another processor's RMW is held back and retried after the unlock.
func (d *Directory) WaitForUnlock(line uint64, core int, fn func(unlockedAt uint64)) bool {
	l, ok := d.locks[line]
	if !ok || l.owner == core {
		return false
	}
	d.stats.LockDenials++
	l.waiters = append(l.waiters, fn)
	return true
}

// Unlock releases one of the core's locks on the line at the given time.
// The last release frees the line and resumes any parked requests.
// Unlocking a line that is not locked by the core is a protocol bug and
// panics.
func (d *Directory) Unlock(line uint64, core int, at uint64) {
	l, ok := d.locks[line]
	if !ok {
		panic(fmt.Sprintf("directory: core %d unlocking line %#x which is not locked", core, line))
	}
	if l.owner != core {
		panic(fmt.Sprintf("directory: core %d unlocking line %#x locked by core %d", core, line, l.owner))
	}
	d.stats.Unlocks++
	if l.depth--; l.depth > 0 {
		return
	}
	delete(d.locks, line)
	for _, w := range l.waiters {
		w(at)
	}
}

// getS computes the latency of a read-permission request and updates the
// directory and cache state.
func (d *Directory) getS(core int, line uint64) uint64 {
	d.stats.GetS++
	m := d.meta(line)
	c := d.caches[core]

	// Local hit in any valid state.
	if c.Lookup(line).CanRead() {
		d.stats.L1Hits++
		return d.lat.L1
	}

	home := d.mesh.Home(line)
	reqToHome := d.mesh.Latency(core, home)
	var latency uint64
	switch {
	case m.owner >= 0 && m.owner != core:
		// Owner forwards the data: requester -> home -> owner -> requester.
		d.stats.OwnerForwards++
		latency = reqToHome + d.mesh.Latency(home, m.owner) + d.lat.L1 + d.mesh.Latency(m.owner, core)
		// The owner keeps a dirty copy in Owned state.
		d.caches[m.owner].SetState(line, cache.Owned)
	case m.inL2 || len(m.sharers) > 0:
		d.stats.L2Hits++
		latency = reqToHome + d.lat.L2 + d.mesh.Latency(home, core)
	default:
		d.stats.MemAccesses++
		latency = reqToHome + d.lat.Mem + d.mesh.Latency(home, core)
		m.inL2 = true
	}
	m.sharers[core] = true
	d.insertLocal(core, line, cache.Shared)
	return d.lat.L1 + latency
}

// getM computes the latency of a write-permission request and updates the
// directory and cache state, invalidating other copies.
func (d *Directory) getM(core int, line uint64) uint64 {
	d.stats.GetM++
	m := d.meta(line)
	c := d.caches[core]

	// Local hit with write permission.
	if c.Lookup(line).CanWrite() && m.owner == core {
		d.stats.L1Hits++
		return d.lat.L1
	}

	home := d.mesh.Home(line)
	reqToHome := d.mesh.Latency(core, home)
	var latency uint64
	switch {
	case m.owner >= 0 && m.owner != core:
		// Fetch from the remote owner and invalidate it.
		d.stats.OwnerForwards++
		d.stats.Invalidations++
		latency = reqToHome + d.mesh.Latency(home, m.owner) + d.lat.L1 + d.mesh.Latency(m.owner, core)
		d.caches[m.owner].Invalidate(line)
		delete(m.sharers, m.owner)
	case m.inL2 || len(m.sharers) > 0:
		d.stats.L2Hits++
		latency = reqToHome + d.lat.L2 + d.mesh.Latency(home, core)
	default:
		d.stats.MemAccesses++
		latency = reqToHome + d.lat.Mem + d.mesh.Latency(home, core)
		m.inL2 = true
	}

	// Invalidate all other sharers; the invalidations and acknowledgements
	// overlap, so only the farthest sharer adds latency.
	var targets []int
	for s := range m.sharers {
		if s != core {
			targets = append(targets, s)
			d.caches[s].Invalidate(line)
			d.stats.Invalidations++
		}
	}
	if len(targets) > 0 {
		latency += d.mesh.MultiCastLatency(home, targets)
	}

	m.owner = core
	m.sharers = map[int]bool{core: true}
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
	em := d.meta(evicted)
	delete(em.sharers, core)
	if em.owner == core {
		em.owner = -1
		em.inL2 = true // dirty lines are written back to the L2
	}
	if len(em.sharers) > 0 || em.owner >= 0 {
		return
	}
	// The line may still be in the L2; keep inL2 as is.
}

// Owner returns the core owning the line (holding it in M/E/O), or -1.
func (d *Directory) Owner(line uint64) int {
	if m, ok := d.lines[line]; ok {
		return m.owner
	}
	return -1
}

// Sharers returns the cores holding a copy of the line, in no particular
// order.
func (d *Directory) Sharers(line uint64) []int {
	m, ok := d.lines[line]
	if !ok {
		return nil
	}
	var out []int
	for s := range m.sharers {
		out = append(out, s)
	}
	return out
}

// HasLocalCopy reports whether the core holds a readable copy of the line,
// without touching LRU state. Used by the type-3 RMW implementation to
// decide between local locking and directory locking.
func (d *Directory) HasLocalCopy(core int, line uint64) bool {
	return d.caches[core].Peek(line).CanRead()
}
