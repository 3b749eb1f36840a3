// Package cache models the private L1 caches of the simulated chip
// multiprocessor: set-associative arrays of cache lines with MOESI
// coherence states and LRU replacement. The cache decides hits, misses and
// evictions; the global coherence protocol (ownership, sharers, line
// locking) lives in internal/sim/directory.
package cache

import "fmt"

// State is the MOESI coherence state of a cache line.
type State int

const (
	// Invalid: the line is not present.
	Invalid State = iota
	// Shared: a clean read-only copy; other caches may also hold it.
	Shared
	// Exclusive: a clean copy and no other cache holds the line.
	Exclusive
	// Owned: a dirty copy that may be shared with other caches; this cache
	// must supply the data.
	Owned
	// Modified: a dirty exclusive copy.
	Modified
)

// String returns the usual one-letter MOESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// CanRead reports whether a line in this state satisfies a load.
func (s State) CanRead() bool { return s != Invalid }

// CanWrite reports whether a line in this state satisfies a store without a
// coherence transaction.
func (s State) CanWrite() bool { return s == Exclusive || s == Modified }

// Dirty reports whether the line holds data newer than memory.
func (s State) Dirty() bool { return s == Owned || s == Modified }

// Line is one cache line's tag state.
type Line struct {
	// Addr is the line address (byte address >> log2(line size)).
	Addr uint64
	// State is the MOESI state; Invalid lines are unused ways.
	State State
	// lru is the last-touch timestamp used for replacement.
	lru uint64
}

// Config describes a cache geometry.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Assoc is the number of ways per set.
	Assoc int
	// LineBytes is the cache line size.
	LineBytes int
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	lines := c.SizeBytes / c.LineBytes
	if c.Assoc <= 0 || lines <= 0 {
		return 0
	}
	sets := lines / c.Assoc
	if sets == 0 {
		sets = 1
	}
	return sets
}

// Validate checks the geometry is usable.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.SizeBytes%(c.Assoc*c.LineBytes) != 0 {
		return fmt.Errorf("cache: size %d not divisible by assoc*line (%d*%d)", c.SizeBytes, c.Assoc, c.LineBytes)
	}
	return nil
}

// Cache is a set-associative cache with LRU replacement. Addresses passed
// to its methods are line addresses (already divided by the line size); the
// owning simulator performs that conversion so that all components agree on
// line granularity.
type Cache struct {
	cfg Config
	// lines holds every set back to back: set i is
	// lines[i*Assoc : (i+1)*Assoc].
	lines []Line
	nsets uint64
	// setMask is nsets-1 when nsets is a power of two, and 0 otherwise.
	setMask uint64
	clock   uint64

	hits      uint64
	misses    uint64
	evictions uint64
}

// New builds an empty cache with the given geometry. It panics on an
// invalid geometry, which is a configuration programming error.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{cfg: cfg, lines: make([]Line, sets*cfg.Assoc), nsets: uint64(sets)}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// set returns the ways of the set a line address maps to.
func (c *Cache) set(lineAddr uint64) []Line {
	s := lineAddr & c.setMask
	if c.setMask == 0 {
		s = lineAddr % c.nsets
	}
	i := int(s) * c.cfg.Assoc
	return c.lines[i : i+c.cfg.Assoc : i+c.cfg.Assoc]
}

// Lookup returns the state of the line, or Invalid if it is not cached.
// A successful lookup refreshes the line's LRU position and counts a hit;
// a failed one counts a miss.
func (c *Cache) Lookup(lineAddr uint64) State {
	c.clock++
	set := c.set(lineAddr)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == lineAddr {
			set[i].lru = c.clock
			c.hits++
			return set[i].State
		}
	}
	c.misses++
	return Invalid
}

// Peek returns the state of the line without touching LRU or statistics.
func (c *Cache) Peek(lineAddr uint64) State {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == lineAddr {
			return set[i].State
		}
	}
	return Invalid
}

// Insert places the line in the cache with the given state, evicting the
// LRU way of its set if necessary. It returns the evicted line address and
// whether an eviction of a valid line occurred, so the coherence layer can
// update the directory.
func (c *Cache) Insert(lineAddr uint64, state State) (evicted uint64, didEvict bool) {
	if state == Invalid {
		c.Invalidate(lineAddr)
		return 0, false
	}
	c.clock++
	set := c.set(lineAddr)
	// Already present: update state in place.
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == lineAddr {
			set[i].State = state
			set[i].lru = c.clock
			return 0, false
		}
	}
	// Free way?
	for i := range set {
		if set[i].State == Invalid {
			set[i] = Line{Addr: lineAddr, State: state, lru: c.clock}
			return 0, false
		}
	}
	// Evict LRU.
	victim := 0
	for i := range set {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	evicted = set[victim].Addr
	set[victim] = Line{Addr: lineAddr, State: state, lru: c.clock}
	c.evictions++
	return evicted, true
}

// SetState changes the state of a cached line; it is a no-op when the line
// is not present. Setting Invalid removes the line.
func (c *Cache) SetState(lineAddr uint64, state State) {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == lineAddr {
			if state == Invalid {
				set[i] = Line{}
			} else {
				set[i].State = state
			}
			return
		}
	}
}

// Invalidate removes the line from the cache (e.g. on a remote GetM).
func (c *Cache) Invalidate(lineAddr uint64) {
	c.SetState(lineAddr, Invalid)
}

// Hits returns the number of lookups that found their line.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of lookups that did not find their line.
func (c *Cache) Misses() uint64 { return c.misses }

// Evictions returns the number of valid lines an insert replaced.
func (c *Cache) Evictions() uint64 { return c.evictions }

// Occupancy returns the number of valid lines currently cached.
func (c *Cache) Occupancy() int {
	n := 0
	for _, l := range c.lines {
		if l.State != Invalid {
			n++
		}
	}
	return n
}

// Capacity returns the total number of lines the cache can hold.
func (c *Cache) Capacity() int { return len(c.lines) }
