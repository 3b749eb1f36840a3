package memmodel

import "context"

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
