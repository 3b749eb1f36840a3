package memmodel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// enumConfig collects the enumeration options.
type enumConfig struct {
	ctx        context.Context
	workers    int
	classify   func() func(*Execution) uint64
	uniproc    bool
	candidates *int
}

// EnumOption configures EnumerateFunc.
type EnumOption func(*enumConfig)

// EnumContext makes the enumeration honour ctx: cancellation stops every
// walker, and the uniproc table search before them, promptly and the
// enumeration returns ctx's error.
func EnumContext(ctx context.Context) EnumOption {
	return func(c *enumConfig) { c.ctx = ctx }
}

// EnumWorkers sets how many goroutines walk the candidate space. n == 1
// (the default) keeps the enumeration sequential; n > 1 partitions the
// candidate index space into n contiguous ranges, each walked by its own
// worker goroutine with a private arena; n <= 0 applies the
// candidate-count rule: runtime.GOMAXPROCS(0) workers when the walk
// visits at least AutoEnumThreshold candidates, 1 below it. The count is
// the walk's own: under EnumUniprocAdjacentRMW it is the number of
// candidates that satisfy uniproc and the RMW condition, usually far
// fewer than CountCandidates. The worker count is further clamped to the
// number of candidate indices.
func EnumWorkers(n int) EnumOption {
	return func(c *enumConfig) { c.workers = n }
}

// EnumClassify classifies every candidate before it reaches visit: each
// walker calls newClass once for a classifier of its own, which returns
// a candidate's class; 0 drops the candidate, and visit reads a
// survivor's nonzero class back with Execution.Class. Unlike visit, the
// classifiers run inside the worker goroutines — concurrently when
// workers > 1 — which is exactly what makes expensive per-candidate work
// (validity checking) scale, and the class carries its verdict to visit
// without a second check: internal/core classifies a candidate by the
// set of atomicity types it is valid under. newClass must therefore be
// safe for concurrent use, while each classifier it returns serves one
// walker only and may keep scratch state across that walker's
// candidates. Like visit, a classifier receives arena-owned executions it
// must not retain.
func EnumClassify(newClass func() func(*Execution) uint64) EnumOption {
	return func(c *enumConfig) { c.classify = newClass }
}

// EnumUniprocAdjacentRMW restricts the walk to the candidates that
// satisfy uniproc (Execution.Uniproc) and in which every RMW is adjacent
// in ws: its read half Ra reads from the write just before its write half
// Wa in the location's ws order. It visits exactly those candidates of
// the full walk, as a multiset, and assembles no other.
//
// No atomicity type of internal/core accepts a candidate that breaks the
// RMW condition, so a TSO verdict loses nothing to it. Uniproc puts Ra's
// source s ws-before Wa (CoRW), so when s is not Wa's ws-predecessor some
// write w' lies between them: s →ws w' →ws Wa. Ra is then fr-before w',
// and the closed base order holds Ra →fr w' →ws Wa. Every type disallows
// w' between the halves, since it is a write to their location, so the
// first ato rule, Ra before w' forces Wa before w', adds Wa → w', which
// closes a cycle with w' →ws Wa: the candidate is invalid under every
// type.
//
// Uniproc's edges (poloc, ws, rf, fr) and the RMW condition each join
// events of one location, so a candidate passes exactly when every
// location's share of it does: its reads' rf choices and its ws order.
// Before walking, it builds each location's ws orders that extend poloc
// and, per order, searches the location's reads' rf choices depth first,
// bounding each read's source by its position in the order; the walk then
// runs over the product of the locations' tables of passing shares. The
// tables hold one int per passing share, so their memory grows with the
// number of candidates that pass.
//
// TSO verdicts use it (internal/core, internal/litmus); C/C++11 analysis
// does not, since it classifies every candidate.
func EnumUniprocAdjacentRMW() EnumOption {
	return func(c *enumConfig) { c.uniproc = true }
}

// EnumCandidates stores the program's candidate count — CountCandidates,
// whichever set the walk visits — into *n once the space is built and
// before the first visit. It lets a verdict report the full count without
// building the space twice.
func EnumCandidates(n *int) EnumOption {
	return func(c *enumConfig) { c.candidates = n }
}

// AutoEnumThreshold is the candidate count from which EnumWorkers(0) fans
// one enumeration across GOMAXPROCS workers. Below it, per-candidate work
// is too small to amortize the goroutine and merge machinery.
const AutoEnumThreshold = 4096

// EnumerateFunc generates all candidate executions of a litmus program and
// streams them to visit, one at a time: every combination of a reads-from
// assignment (each read may read from any write to the same location,
// including the initial write, but not from the write half of its own RMW)
// and a per-location write serialization (every permutation of the
// non-initial writes, with the initial write first).
//
// Values are then propagated: plain writes keep their program value and
// RMW writes receive Modify(value read by their read half). Candidates
// whose value propagation does not converge (cyclic value dependencies
// through RMWs) are dropped and never reach visit.
//
// The visited executions are candidates only: callers must still filter
// by validity (Execution.Uniproc and Execution.BaseClosure for the base
// model, or the RMW-aware check in internal/core), either in visit or
// concurrently via EnumClassify.
//
// Each execution passed to visit is owned by the walker's arena and is
// valid only for the duration of the call: the enumerator reuses its
// storage for later candidates, which is what makes the per-candidate loop
// allocation-free. The walk is an odometer: the next candidate reuses
// whatever of this one's rf and ws choices, event values and base-order
// closure levels (Execution.BaseClosure) its differing locations leave
// valid, so visit and the classifiers must not modify the execution. Use
// Execution.Clone to retain one beyond the visit (as Enumerate does); a
// clone keeps no closure level and closes its base order afresh on each
// BaseClosure call. Returning false from visit stops the enumeration
// after exactly that visit.
//
// Programs whose candidate space does not fit in an int fail up front with
// an error wrapping ErrSpaceTooLarge.
//
// EnumUniprocAdjacentRMW restricts the walk to the candidates that
// satisfy uniproc and in which every RMW reads the ws-predecessor of its
// write half, which is all a TSO validity check can accept; it finds them
// location by location before the first visit, in memory that grows with
// their number. Without it every candidate is walked.
//
// By default the enumeration is sequential and visits candidates in
// candidate index order. When EnumWorkers resolves to more than one
// worker, the ranges are walked concurrently and the visits are
// serialized in worker completion order: visit is never called
// concurrently and sees the same multiset of candidates, in an order that
// varies from run to run.
func EnumerateFunc(p *Program, visit func(*Execution) bool, opts ...EnumOption) error {
	cfg := enumConfig{ctx: context.Background(), workers: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.ctx == nil {
		cfg.ctx = context.Background()
	}
	sp, err := newEnumSpace(p)
	if err != nil {
		return err
	}
	if cfg.candidates != nil {
		*cfg.candidates = sp.candidates
	}
	if err := sp.buildWalk(cfg.ctx, cfg.uniproc); err != nil {
		return err
	}
	if workers := sp.workers(cfg.workers); workers > 1 {
		return sp.runParallel(&cfg, workers, visit)
	}
	return sp.scan(&cfg, 0, sp.total(), nil, sp.newArena(), visit)
}

// workers resolves an EnumWorkers setting against the built walk: n <= 0
// applies the candidate-count rule to the candidates the walk visits, and
// the result is clamped to the walk's index count.
func (sp *enumSpace) workers(n int) int {
	if n <= 0 {
		n = 1
		if sp.visits() >= AutoEnumThreshold {
			n = runtime.GOMAXPROCS(0)
		}
	}
	return min(n, sp.total())
}

// scan walks candidate indices [lo, hi) in ascending order: it assembles
// each candidate into the arena, classifies it with the walker's own
// classifier (EnumClassify), and hands survivors to emit. It returns early without error when emit returns false or stop
// reports true, and returns ctx's error when the context is cancelled.
func (sp *enumSpace) scan(cfg *enumConfig, lo, hi int, stop *atomic.Bool, arena *enumArena, emit func(*Execution) bool) error {
	done := cfg.ctx.Done()
	var classify func(*Execution) uint64
	if cfg.classify != nil {
		classify = cfg.classify()
	}
	for g := lo; g < hi; g++ {
		if stop != nil && stop.Load() {
			return nil
		}
		if done != nil && (g-lo)&63 == 0 {
			select {
			case <-done:
				return cfg.ctx.Err()
			default:
			}
		}
		x := sp.candidate(g, arena)
		if x == nil {
			continue // cyclic RMW value dependency: not a candidate
		}
		if classify != nil {
			if x.class = classify(x); x.class == 0 {
				continue
			}
		}
		if !emit(x) {
			return nil
		}
	}
	return nil
}

// ranges splits [0, total) into n contiguous, near-equal index ranges.
func (sp *enumSpace) ranges(n int) [][2]int {
	total := sp.total()
	size, rem := total/n, total%n
	out := make([][2]int, n)
	lo := 0
	for i := 0; i < n; i++ {
		hi := lo + size
		if i < rem {
			hi++
		}
		out[i] = [2]int{lo, hi}
		lo = hi
	}
	return out
}

// runParallel fans the index ranges across workers and serializes visits
// through a mutex, in worker completion order. The stop flag is flipped
// under the same mutex as the visit, so a false return stops the
// enumeration after exactly that visit. The visit completes under the
// mutex before its worker assembles the next candidate, which is why each
// worker's arena needs only its one execution slot.
func (sp *enumSpace) runParallel(cfg *enumConfig, workers int, visit func(*Execution) bool) error {
	var (
		stop atomic.Bool
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	emit := func(x *Execution) bool {
		mu.Lock()
		defer mu.Unlock()
		if stop.Load() {
			return false
		}
		if !visit(x) {
			stop.Store(true)
			return false
		}
		return true
	}
	errs := make([]error, workers)
	for w, r := range sp.ranges(workers) {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = sp.scan(cfg, lo, hi, &stop, sp.newArena(), emit)
		}(w, r[0], r[1])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
