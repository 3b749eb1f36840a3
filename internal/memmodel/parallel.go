package memmodel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// enumConfig collects the enumeration options.
type enumConfig struct {
	ctx     context.Context
	workers int
	filter  func(*Execution) bool
}

// EnumOption configures EnumerateFunc.
type EnumOption func(*enumConfig)

// EnumContext makes the enumeration honour ctx: cancellation stops every
// walker promptly and the enumeration returns ctx's error.
func EnumContext(ctx context.Context) EnumOption {
	return func(c *enumConfig) { c.ctx = ctx }
}

// EnumWorkers sets how many goroutines walk the candidate space. n == 1
// (the default) keeps the enumeration sequential; n > 1 partitions the
// candidate index space into n contiguous ranges, each walked by its own
// worker goroutine with a private arena; n <= 0 applies the
// candidate-count rule: runtime.GOMAXPROCS(0) workers when the program
// has at least AutoEnumThreshold candidates, 1 below it. The worker count
// is further clamped to the number of candidate indices.
func EnumWorkers(n int) EnumOption {
	return func(c *enumConfig) { c.workers = n }
}

// EnumFilter drops candidates for which pred returns false before they
// reach visit. Unlike visit, the filter runs inside the worker goroutines
// — concurrently when workers > 1 — which is exactly what makes expensive
// per-candidate work (validity checking) scale: pred must therefore be
// safe for concurrent use. Like visit, pred receives arena-owned
// executions it must not retain.
func EnumFilter(pred func(*Execution) bool) EnumOption {
	return func(c *enumConfig) { c.filter = pred }
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
// by validity (Execution.BaseValid for the base model, or the RMW-aware
// check in internal/core), either in visit or concurrently via EnumFilter.
//
// Each execution passed to visit is owned by the walker's arena and is
// valid only for the duration of the call: the enumerator reuses its
// storage for later candidates, which is what makes the per-candidate loop
// allocation-free. Use Execution.Clone to retain one beyond the visit (as
// Enumerate does). Returning false from visit stops the enumeration after
// exactly that visit.
//
// Programs whose candidate space does not fit in an int fail up front with
// an error wrapping ErrSpaceTooLarge.
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
	if workers := sp.workers(cfg.workers); workers > 1 {
		return sp.runParallel(&cfg, workers, visit)
	}
	return sp.scan(&cfg, 0, sp.total(), nil, sp.newArena(), visit)
}

// workers resolves an EnumWorkers setting against the space: n <= 0
// applies the candidate-count rule, and the result is clamped to the
// candidate index count. The candidate count never exceeds total(), so a
// space below the threshold is decided without walking its reads-from
// assignments.
func (sp *enumSpace) workers(n int) int {
	if n <= 0 {
		n = 1
		if sp.total() >= AutoEnumThreshold && sp.count() >= AutoEnumThreshold {
			n = runtime.GOMAXPROCS(0)
		}
	}
	return min(n, sp.total())
}

// scan walks candidate indices [lo, hi) in ascending order: it assembles
// each candidate into the arena, applies the filter, and hands survivors
// to emit. It returns early without error when emit returns false or stop
// reports true, and returns ctx's error when the context is cancelled.
func (sp *enumSpace) scan(cfg *enumConfig, lo, hi int, stop *atomic.Bool, arena *enumArena, emit func(*Execution) bool) error {
	done := cfg.ctx.Done()
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
		if cfg.filter != nil && !cfg.filter(x) {
			continue
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
