package memmodel

import (
	"context"
	"slices"
)

// Walk exposes one walk of a program to the external tests: the full
// walk, or the uniproc walk when built with uniproc set.
type Walk struct{ sp *enumSpace }

// NewWalk builds p's full or uniproc walk.
func NewWalk(p *Program, uniproc bool) (*Walk, error) {
	sp, err := newEnumSpace(p)
	if err != nil {
		return nil, err
	}
	if err := sp.buildWalk(context.Background(), uniproc); err != nil {
		return nil, err
	}
	return &Walk{sp: sp}, nil
}

// Total returns the walk's number of candidate indices.
func (w *Walk) Total() int { return w.sp.total() }

// NewArena returns a fresh walker arena.
func (w *Walk) NewArena() *enumArena { return w.sp.newArena() }

// Candidate assembles candidate g into the arena's slot, as a walker
// does, and returns it, or nil when its values are cyclic.
func (w *Walk) Candidate(g int, a *enumArena) *Execution { return w.sp.candidate(g, a) }

// ClosureProgress returns how many of a walk slot's base-closure steps
// are built and whether the next one closes a cycle.
func (x *Execution) ClosureProgress() (built int, cyclic bool) { return x.built, x.cyclic }

// StepInsertions returns the closed insertions step k of a walk slot's
// base closure makes when it closes no cycle: one per link of a ws chain,
// and for a read one for its rfe edge, when external, and one for its fr
// edge, when its source has a ws-successor.
func (x *Execution) StepInsertions(k int) int {
	for l, reads := range x.locReads {
		order := x.wsOrders[l]
		if k == 0 {
			return max(len(order)-1, 0)
		}
		if k <= len(reads) {
			rd := reads[k-1]
			w, n := x.rf[rd], 0
			if x.Events[w].Thread != x.Events[rd].Thread {
				n++
			}
			if i := slices.Index(order, w); i+1 < len(order) && i >= 0 {
				n++
			}
			return n
		}
		k -= 1 + len(reads)
	}
	return 0
}
