package workload

import (
	"math/rand"
	"strconv"

	"repro/internal/sim"
)

// Source is the lazy form of a generated benchmark trace: it implements
// sim.TraceSource by synthesizing each core's operations one
// synchronization episode at a time, on demand. Where Generate holds the
// whole O(cores × iterations × ops-per-episode) trace in memory, a Source
// stream keeps only the current episode's ops buffered — O(window) per
// core, independent of how long the workload runs.
//
// Stream returns a fresh, independent iterator on every call (each stream
// owns its rng, seeded exactly as the materializing path seeds it), so one
// Source can feed several simulation runs concurrently — the pattern the
// Runner's per-RMW-type sweeps use — and every stream of the same core
// yields the identical op sequence.
type Source struct {
	name    string
	gen     Generator
	profile Profile
	episode episodeFunc
	// digest is WorkloadDigest's value, computed once: a source never
	// changes, and a plan asks for it once per RMW type.
	digest string
}

// Source returns the lazy per-core trace source for a profile. It
// validates the (generator, profile) pair up front; generation work only
// happens as the returned source's streams are consumed.
func (g Generator) Source(p Profile) (*Source, error) {
	if err := g.validate(p); err != nil {
		return nil, err
	}
	ep, err := g.episode(p)
	if err != nil {
		return nil, err
	}
	digest := p.Digest() + "|replace=" + strconv.Itoa(int(g.Replacement))
	return &Source{name: g.TraceName(p), gen: g, profile: p, episode: ep, digest: digest}, nil
}

// SourceByName returns the lazy trace source for a Table 3 benchmark by
// name; the materializing equivalent is GenerateByName.
func (g Generator) SourceByName(name string) (*Source, error) {
	p, err := FindProfile(name)
	if err != nil {
		return nil, err
	}
	return g.Source(p)
}

// Name returns the trace name (profile name plus replacement suffix).
func (s *Source) Name() string { return s.name }

// WorkloadDigest identifies the generated workload's content beyond its
// name: the digest of the profile's generator parameters plus the
// replacement variant. Result caches fold it into their keys so a
// hand-modified profile that kept a benchmark's name can never alias to
// the stock benchmark's cached runs (cores and seed are separate key
// fields already).
func (s *Source) WorkloadDigest() string { return s.digest }

// Cores returns the number of per-core streams.
func (s *Source) Cores() int { return s.gen.Cores }

// Profile returns the profile the source generates.
func (s *Source) Profile() Profile { return s.profile }

// Stream returns a fresh iterator over core c's operations. Each call
// creates an independent stream with its own deterministic rng, so streams
// may be consumed concurrently and re-created to replay the same core.
func (s *Source) Stream(c int) sim.OpStream {
	cs := &coreStream{
		src:  s,
		core: c,
		// One rng per core, seeded exactly as Generate's per-core loop
		// seeds it, keeps the streamed and materialized forms
		// byte-identical.
		rng: rand.New(rand.NewSource(s.gen.Seed + int64(c)*7919 + 1)),
	}
	// Build the emit closure once per stream, not per refill, so the
	// steady-state refill loop allocates only what the episode function
	// itself allocates.
	cs.emit = func(op sim.Op) { cs.buf = append(cs.buf, op) }
	return cs
}

// coreStream generates one core's operations episode by episode. Only the
// current episode is buffered; the buffer is reused across refills, so
// after warm-up a stream allocates nothing per episode beyond what the
// episode function itself allocates.
type coreStream struct {
	src  *Source
	core int
	rng  *rand.Rand
	emit emitFn

	// it counts completed episodes; buf/pos hold the current episode's
	// not-yet-consumed ops.
	it  int
	buf []sim.Op
	pos int

	// maxWindow records the high-water mark of the episode buffer, the
	// quantity the O(window) memory-bound tests assert on.
	maxWindow int
}

// Next returns the core's next operation, refilling the episode buffer
// when the previous episode is exhausted.
func (cs *coreStream) Next() (sim.Op, bool) {
	for cs.pos >= len(cs.buf) {
		if cs.it >= cs.src.profile.Iterations {
			return sim.Op{}, false
		}
		cs.buf = cs.buf[:0]
		cs.pos = 0
		cs.src.episode(cs.src.gen, cs.core, cs.src.profile, cs.rng, cs.emit)
		cs.it++
		if len(cs.buf) > cs.maxWindow {
			cs.maxWindow = len(cs.buf)
		}
	}
	op := cs.buf[cs.pos]
	cs.pos++
	return op, true
}
