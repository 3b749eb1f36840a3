package memmodel

import (
	"fmt"
	"math/bits"
	"strings"
)

// wordBits is the width of one bitset word.
const wordBits = 64

// Relation is a binary relation over the events of a single candidate
// execution, stored as a dense bitset adjacency matrix indexed by
// Event.Index: row i holds one bit per possible successor j. Litmus-scale
// executions have at most a few dozen events, so a whole row is typically a
// single uint64 and the closure/cycle algorithms below run word-parallel.
//
// Self-edges (i,i) are representable: a pair on the diagonal is a cycle of
// length one, reported as such by Acyclic, FindCycle and TopoSort. This
// keeps the relation closed under TransitiveClosure — a cycle surfaced as a
// closure self-edge can be copied into a derived relation verbatim.
type Relation struct {
	n     int
	words int // words per row: ceil(n/64)
	bits  []uint64
}

// NewRelation returns an empty relation over n events.
func NewRelation(n int) *Relation {
	r := &Relation{}
	r.init(n)
	return r
}

// init sizes the relation for n events, reusing the existing backing array
// when it is large enough. The relation is cleared either way.
func (r *Relation) init(n int) {
	words := (n + wordBits - 1) / wordBits
	need := n * words
	r.n, r.words = n, words
	if cap(r.bits) < need {
		r.bits = make([]uint64, need)
		return
	}
	r.bits = r.bits[:need]
	r.Clear()
}

// Reset clears the relation and resizes it to range over n events, reusing
// the backing array when it is large enough. It is how arena slots and
// scratch relations are recycled without allocating.
func (r *Relation) Reset(n int) { r.init(n) }

// row returns the backing words of row i.
func (r *Relation) row(i int) []uint64 {
	return r.bits[i*r.words : (i+1)*r.words]
}

// Size returns the number of events the relation ranges over.
func (r *Relation) Size() int { return r.n }

// Add inserts the ordered pair (from, to). The diagonal is representable:
// Add(i, i) records a length-1 cycle.
func (r *Relation) Add(from, to int) {
	r.bits[from*r.words+to/wordBits] |= 1 << (uint(to) % wordBits)
}

// Has reports whether the ordered pair (from, to) is in the relation.
func (r *Relation) Has(from, to int) bool {
	return r.bits[from*r.words+to/wordBits]&(1<<(uint(to)%wordBits)) != 0
}

// Remove deletes the ordered pair (from, to).
func (r *Relation) Remove(from, to int) {
	r.bits[from*r.words+to/wordBits] &^= 1 << (uint(to) % wordBits)
}

// Clear removes every pair, keeping the size.
func (r *Relation) Clear() {
	for i := range r.bits {
		r.bits[i] = 0
	}
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := &Relation{n: r.n, words: r.words, bits: make([]uint64, len(r.bits))}
	copy(c.bits, r.bits)
	return c
}

// CopyFrom makes r an exact copy of other, resizing r as needed. It returns
// r. Unlike Clone it reuses r's backing array, so scratch relations can be
// refilled without allocating.
func (r *Relation) CopyFrom(other *Relation) *Relation {
	r.n, r.words = other.n, other.words
	if cap(r.bits) < len(other.bits) {
		r.bits = make([]uint64, len(other.bits))
	}
	r.bits = r.bits[:len(other.bits)]
	copy(r.bits, other.bits)
	return r
}

// AddClosed adds the pair (from, to) to a transitively closed, acyclic
// relation and closes it again: every event that reaches from (and from
// itself) now reaches to and everything to reaches. It reports false,
// leaving r unchanged, when the pair would close a cycle — to already
// reaches from, or from == to. Each call costs one pass over the rows, so
// a search that adds edges one at a time learns of a cycle the moment the
// edge that closes it goes in: the uniproc table search (EnumUniproc) and
// internal/core's ato fixpoint both grow a closure this way.
func (r *Relation) AddClosed(from, to int) bool {
	if from == to || r.Has(to, from) {
		return false
	}
	if r.words == 1 {
		// One word per row: row i is r.bits[i].
		fromBit, add := uint64(1)<<uint(from), r.bits[to]|uint64(1)<<uint(to)
		for i, row := range r.bits[:r.n] {
			if i == from || row&fromBit != 0 {
				r.bits[i] = row | add
			}
		}
		return true
	}
	fromWord, fromBit := from/wordBits, uint64(1)<<(uint(from)%wordBits)
	toWord, toBit := to/wordBits, uint64(1)<<(uint(to)%wordBits)
	toRow := r.row(to)
	for i := 0; i < r.n; i++ {
		row := r.bits[i*r.words : (i+1)*r.words]
		if i != from && row[fromWord]&fromBit == 0 {
			continue
		}
		for w := range row {
			row[w] |= toRow[w]
		}
		row[toWord] |= toBit
	}
	return true
}

// Union adds every pair of other into r and returns r — one OR per word.
// The two relations must range over the same number of events.
func (r *Relation) Union(other *Relation) *Relation {
	if other == nil {
		return r
	}
	if other.n != r.n {
		panic(fmt.Sprintf("memmodel: union of relations of different sizes (%d vs %d)", r.n, other.n))
	}
	for i, w := range other.bits {
		r.bits[i] |= w
	}
	return r
}

// Pairs returns all ordered pairs in the relation, sorted for determinism.
func (r *Relation) Pairs() [][2]int {
	var out [][2]int
	for i := 0; i < r.n; i++ {
		row := r.row(i)
		for w, word := range row {
			for word != 0 {
				j := w*wordBits + bits.TrailingZeros64(word)
				out = append(out, [2]int{i, j})
				word &= word - 1
			}
		}
	}
	return out
}

// Count returns the number of pairs in the relation.
func (r *Relation) Count() int {
	c := 0
	for _, w := range r.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// TransitiveClosure computes the transitive closure of r in place and
// returns r: word-parallel Warshall — whenever row i can reach k, everything
// k reaches is ORed into row i, one word at a time.
func (r *Relation) TransitiveClosure() *Relation {
	n, words := r.n, r.words
	if words == 1 {
		// One word per row, every litmus-scale relation: row k is
		// r.bits[k].
		rows := r.bits[:n]
		for k, kBit := 0, uint64(1); k < n; k, kBit = k+1, kBit<<1 {
			kRow := rows[k]
			for i, row := range rows {
				if row&kBit != 0 {
					rows[i] = row | kRow
				}
			}
		}
		return r
	}
	for k := 0; k < n; k++ {
		kRow := r.row(k)
		kWord, kBit := k/wordBits, uint64(1)<<(uint(k)%wordBits)
		for i := 0; i < n; i++ {
			iRow := r.bits[i*words : i*words+words]
			if iRow[kWord]&kBit == 0 {
				continue
			}
			for w := range iRow {
				iRow[w] |= kRow[w]
			}
		}
	}
	return r
}

// Acyclic reports whether the relation contains no cycle. A self-edge is a
// length-1 cycle. The check peels nodes with no outgoing edge into the
// still-live set until either every node is removed (acyclic) or a pass
// removes nothing (the survivors all lie on cycles). For relations of up to
// 64 events — every litmus-scale execution — the live set is a single word
// and the check allocates nothing.
func (r *Relation) Acyclic() bool {
	if r.n <= wordBits {
		return r.acyclicWord()
	}
	return r.acyclicBig()
}

// acyclicWord is the single-word fast path of Acyclic.
func (r *Relation) acyclicWord() bool {
	var live uint64
	if r.n == wordBits {
		live = ^uint64(0)
	} else {
		live = 1<<uint(r.n) - 1
	}
	for live != 0 {
		removed := uint64(0)
		rest := live
		for rest != 0 {
			i := bits.TrailingZeros64(rest)
			rest &= rest - 1
			if r.bits[i]&live == 0 {
				removed |= 1 << uint(i)
			}
		}
		if removed == 0 {
			return false
		}
		live &^= removed
	}
	return true
}

// acyclicBig is the multi-word path of Acyclic, for relations over more
// than 64 events.
func (r *Relation) acyclicBig() bool {
	words := r.words
	live := make([]uint64, words)
	for i := 0; i < r.n; i++ {
		live[i/wordBits] |= 1 << (uint(i) % wordBits)
	}
	liveCount := r.n
	for liveCount > 0 {
		removed := 0
		for i := 0; i < r.n; i++ {
			if live[i/wordBits]&(1<<(uint(i)%wordBits)) == 0 {
				continue
			}
			row := r.row(i)
			out := uint64(0)
			for w := 0; w < words; w++ {
				out |= row[w] & live[w]
			}
			if out == 0 {
				live[i/wordBits] &^= 1 << (uint(i) % wordBits)
				removed++
			}
		}
		if removed == 0 {
			return false
		}
		liveCount -= removed
	}
	return true
}

// TopoSort returns one linear extension of the relation (a total order
// consistent with it), or an error if the relation is cyclic — a self-edge
// counts as a cycle. Among the events available at each step the one with
// the smallest index is chosen, so the result is deterministic.
func (r *Relation) TopoSort() ([]int, error) {
	n := r.n
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		row := r.row(i)
		for w, word := range row {
			for word != 0 {
				j := w*wordBits + bits.TrailingZeros64(word)
				indeg[j]++
				word &= word - 1
			}
		}
	}
	order := make([]int, 0, n)
	emitted := make([]bool, n)
	for len(order) < n {
		next := -1
		for i := 0; i < n; i++ {
			if !emitted[i] && indeg[i] == 0 {
				next = i
				break
			}
		}
		if next < 0 {
			return nil, fmt.Errorf("memmodel: relation is cyclic, no linear extension exists")
		}
		emitted[next] = true
		order = append(order, next)
		row := r.row(next)
		for w, word := range row {
			for word != 0 {
				j := w*wordBits + bits.TrailingZeros64(word)
				indeg[j]--
				word &= word - 1
			}
		}
	}
	return order, nil
}

// FindCycle returns one cycle in the relation as a sequence of event
// indices (the last element reaches the first), or nil if the relation is
// acyclic. A self-edge yields a length-1 cycle. Useful for diagnostics such
// as explaining why an execution is forbidden.
func (r *Relation) FindCycle() []int {
	n := r.n
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var cycle []int
	var dfs func(v int) bool
	dfs = func(v int) bool {
		color[v] = gray
		row := r.row(v)
		for w, word := range row {
			for word != 0 {
				j := w*wordBits + bits.TrailingZeros64(word)
				word &= word - 1
				if color[j] == gray {
					// Found a back edge; reconstruct the cycle j -> ... -> v.
					cycle = []int{j}
					for u := v; u != j && u != -1; u = parent[u] {
						cycle = append(cycle, u)
					}
					// Reverse to get forward order starting at j.
					for a, b := 0, len(cycle)-1; a < b; a, b = a+1, b-1 {
						cycle[a], cycle[b] = cycle[b], cycle[a]
					}
					return true
				}
				if color[j] == white {
					parent[j] = v
					if dfs(j) {
						return true
					}
				}
			}
		}
		color[v] = black
		return false
	}
	for v := 0; v < n; v++ {
		if color[v] == white {
			if dfs(v) {
				return cycle
			}
		}
	}
	return nil
}

// Format renders the relation's pairs using the supplied event slice, one
// pair per line, for debugging and error messages.
func (r *Relation) Format(events []*Event) string {
	var b strings.Builder
	for _, p := range r.Pairs() {
		fmt.Fprintf(&b, "%s -> %s\n", events[p[0]], events[p[1]])
	}
	return b.String()
}
