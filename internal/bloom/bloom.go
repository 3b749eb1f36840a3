// Package bloom implements the bloom-filter addr-list that the paper's
// §3.2 uses to avoid write-deadlocks in the type-2/type-3 RMW
// implementations. The hardware structure is a small bit array (128 bytes
// in the paper's evaluation) indexed by a handful of hash functions; false
// positives are safe (they only force an unnecessary write-buffer drain or
// suppress a broadcast), false negatives never occur.
//
// The hardware keeps one copy of the filter per core and broadcasts every
// newly encountered RMW address to all of them. The model keeps a single
// filter, because the simulator applies every broadcast to all copies at
// once, so the copies are always equal.
package bloom

import "fmt"

// Filter is a bloom filter over 64-bit addresses. The zero value is not
// usable; construct with New.
type Filter struct {
	bits   []uint64
	nbits  uint64
	hashes int
}

// New returns a filter with the given size in bits and number of hash
// functions. Sizes are rounded up to a multiple of 64 bits. New panics if
// sizeBits or hashes is not positive, mirroring the fixed hardware
// configuration (a malformed configuration is a programming error, not a
// runtime condition).
func New(sizeBits int, hashes int) *Filter {
	if sizeBits <= 0 {
		panic(fmt.Sprintf("bloom: non-positive size %d", sizeBits))
	}
	if hashes <= 0 {
		panic(fmt.Sprintf("bloom: non-positive hash count %d", hashes))
	}
	words := (sizeBits + 63) / 64
	return &Filter{
		bits:   make([]uint64, words),
		nbits:  uint64(words * 64),
		hashes: hashes,
	}
}

// hash computes the i-th hash of addr using double hashing over two
// independent 64-bit mixers (splitmix64-style finalizers), the standard
// technique for deriving k hash functions from two.
func (f *Filter) hash(addr uint64, i int) uint64 {
	h1 := mix64(addr ^ 0x9e3779b97f4a7c15)
	h2 := mix64(addr ^ 0xbf58476d1ce4e5b9)
	return (h1 + uint64(i)*h2) % f.nbits
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Insert adds an address to the filter.
func (f *Filter) Insert(addr uint64) {
	for i := 0; i < f.hashes; i++ {
		b := f.hash(addr, i)
		f.bits[b/64] |= 1 << (b % 64)
	}
}

// MayContain reports whether the address may have been inserted. False
// positives are possible; false negatives are not.
func (f *Filter) MayContain(addr uint64) bool {
	for i := 0; i < f.hashes; i++ {
		b := f.hash(addr, i)
		if f.bits[b/64]&(1<<(b%64)) == 0 {
			return false
		}
	}
	return true
}

// AddrList is the addr-list of §3.2: the filter of the RMW addresses seen
// so far, which every core consults, and the count of broadcasts that
// filled it. It tracks the bookkeeping the hardware would while leaving
// the timing of broadcasts to the simulator.
type AddrList struct {
	filter     *Filter
	broadcasts int
}

// NewAddrList builds an empty addr-list whose filter has the given size in
// bits and number of hash functions (New).
func NewAddrList(sizeBits, hashes int) *AddrList {
	return &AddrList{filter: New(sizeBits, hashes)}
}

// Broadcasts returns how many RMW-address broadcasts have been performed.
func (l *AddrList) Broadcasts() int { return l.broadcasts }

// LookupOrBroadcast implements the RMW side of the protocol for the RMW's
// line address: if the address is already (possibly falsely) in the
// list, nothing is broadcast; otherwise the address is inserted and a
// broadcast is counted. It returns true when a broadcast was required, so
// the simulator can charge its latency.
func (l *AddrList) LookupOrBroadcast(addr uint64) (broadcast bool) {
	if l.filter.MayContain(addr) {
		return false
	}
	l.filter.Insert(addr)
	l.broadcasts++
	return true
}

// MayContain implements the write-buffer side of the protocol: it reports
// whether a pending write's line address hits in the list, in which case
// the RMW must revert to a full write-buffer drain to preserve the
// deadlock-safety property.
func (l *AddrList) MayContain(addr uint64) bool { return l.filter.MayContain(addr) }
