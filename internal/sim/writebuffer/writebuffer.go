// Package writebuffer models the per-core store (write) buffer of a TSO
// processor: a bounded FIFO of retired-but-not-yet-performed writes. Under
// TSO the buffer drains in order; the entry at the head owns the in-flight
// coherence transaction. The buffer itself is a passive data structure --
// drain scheduling, forced drains and the interaction with cache-line locks
// are orchestrated by the processor model in internal/sim.
//
// The buffer is a fixed ring of value entries. Each entry is named by its
// push ID (the n-th push gets ID n-1); entries only ever leave at the head,
// so the live entries always carry consecutive IDs and Get finds one by
// arithmetic.
package writebuffer

import "fmt"

// Entry is one pending write.
type Entry struct {
	// ID is the entry's push number, unique within the buffer.
	ID uint64
	// Line is the cache-line address of the write.
	Line uint64
	// IsRMWWrite marks the write half (Wa) of a weak RMW; completing it
	// must unlock the RMW's cache line.
	IsRMWWrite bool
	// EnqueuedAt is the cycle the write retired into the buffer.
	EnqueuedAt uint64
	// InFlight is set while the entry's ownership request is outstanding.
	InFlight bool
	// Ready is set once the entry's ownership response has arrived; under
	// TSO writes still complete (leave the buffer) strictly in FIFO order,
	// so a ready entry behind a non-ready head keeps waiting. ReadyAt
	// records when ownership arrived.
	Ready   bool
	ReadyAt uint64
}

// Buffer is a bounded FIFO write buffer.
type Buffer struct {
	ring []Entry
	head int // ring index of the oldest entry
	n    int // number of pending entries
	// nextID is the ID the next push gets; the head's ID is nextID-n.
	nextID uint64
}

// New returns an empty buffer with the given capacity. It panics on a
// non-positive capacity (a configuration error).
func New(capacity int) *Buffer {
	if capacity <= 0 {
		panic(fmt.Sprintf("writebuffer: non-positive capacity %d", capacity))
	}
	return &Buffer{ring: make([]Entry, capacity)}
}

// Capacity returns the buffer's capacity in entries.
func (b *Buffer) Capacity() int { return len(b.ring) }

// Len returns the number of pending writes.
func (b *Buffer) Len() int { return b.n }

// Empty reports whether no writes are pending.
func (b *Buffer) Empty() bool { return b.n == 0 }

// Full reports whether the buffer cannot accept another write.
func (b *Buffer) Full() bool { return b.n >= len(b.ring) }

// Push appends a write to the tail. It returns the new entry, or an error
// if the buffer is full (the caller must stall and retry once an entry
// drains). The returned pointer stays valid until the entry is popped.
func (b *Buffer) Push(line uint64, isRMWWrite bool, at uint64) (*Entry, error) {
	if b.Full() {
		return nil, fmt.Errorf("writebuffer: full (capacity %d)", len(b.ring))
	}
	e := &b.ring[b.index(b.n)]
	*e = Entry{ID: b.nextID, Line: line, IsRMWWrite: isRMWWrite, EnqueuedAt: at}
	b.nextID++
	b.n++
	return e, nil
}

// Head returns the oldest pending write, or nil when empty.
func (b *Buffer) Head() *Entry {
	if b.n == 0 {
		return nil
	}
	return &b.ring[b.head]
}

// At returns the i-th oldest pending write (At(0) is the head). It panics
// when i is out of range.
func (b *Buffer) At(i int) *Entry {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("writebuffer: index %d out of range [0, %d)", i, b.n))
	}
	return &b.ring[b.index(i)]
}

// index returns the ring index of the i-th oldest entry, 0 <= i <= n.
func (b *Buffer) index(i int) int {
	if i += b.head; i >= len(b.ring) {
		i -= len(b.ring)
	}
	return i
}

// Get returns the pending write with the given push ID, or nil when that
// write is not in the buffer (already popped, or never pushed).
func (b *Buffer) Get(id uint64) *Entry {
	first := b.nextID - uint64(b.n)
	if id < first || id >= b.nextID {
		return nil
	}
	return b.At(int(id - first))
}

// Pop removes the oldest pending write and returns a copy of it. It panics
// on an empty buffer.
func (b *Buffer) Pop() Entry {
	if b.n == 0 {
		panic("writebuffer: pop from an empty buffer")
	}
	e := b.ring[b.head]
	b.head = b.index(1)
	b.n--
	return e
}

// Contains reports whether a pending write to the given line exists, for
// store-to-load forwarding.
func (b *Buffer) Contains(line uint64) bool {
	for i := 0; i < b.n; i++ {
		if b.ring[b.index(i)].Line == line {
			return true
		}
	}
	return false
}
