package rmwtso

import (
	"repro/internal/engine"
	"repro/internal/simcache"
)

// Cache is the two-tier, content-addressed result cache: an in-memory LRU
// in front of an optional on-disk tier (one versioned, checksummed JSON
// file per entry). Simulator runs and litmus verdicts are pure functions
// of their inputs, so a cache hit replays the stored result instead of
// recomputing it — warm `cmd/experiments` reruns produce byte-identical
// tables while executing zero simulator runs for cached keys. Corrupt or
// stale disk entries are detected, deleted and treated as misses. A Cache
// is safe for concurrent use by a Runner's worker pool.
type Cache = simcache.Cache

// CacheKey identifies one cached result by the inputs that determine it:
// entry kind, configuration digest, trace or test name, cores, seed,
// scale and RMW type, all folded into one canonical digest.
type CacheKey = simcache.Key

// CacheStats are a Cache's cumulative hit/miss/store/corruption counters.
type CacheStats = simcache.Stats

// CacheOption configures OpenCache.
type CacheOption = simcache.Option

// CacheSchemaVersion versions the cache key derivation and entry layout;
// it participates in every key, so bumping it orphans older entries
// rather than misinterpreting them.
const CacheSchemaVersion = simcache.SchemaVersion

// OpenCache builds a result cache. With no options the cache is
// memory-only; add CacheDir (typically over DefaultCacheDir's location)
// to persist entries across processes.
func OpenCache(opts ...CacheOption) (*Cache, error) { return simcache.Open(opts...) }

// CacheDir roots the cache's disk tier at dir (created if missing); the
// empty string keeps the cache memory-only.
func CacheDir(dir string) CacheOption { return simcache.WithDir(dir) }

// CacheCapacity bounds the in-memory tier to n entries with LRU
// eviction; n <= 0 removes the bound.
func CacheCapacity(n int) CacheOption { return simcache.WithCapacity(n) }

// DefaultCacheDir returns the conventional on-disk cache location
// (~/.cache/rmwtso on Linux), the directory the binaries' -cache flag
// uses when -cache-dir is not given.
func DefaultCacheDir() (string, error) { return simcache.DefaultDir() }

// OpenCacheFromFlags implements the caching flag contract shared by the
// three binaries: -cache-dir and -cache-clear imply -cache, an empty dir
// falls back to DefaultCacheDir, and clear empties the directory before
// use. It returns a nil cache (and no error) when caching was not
// requested, so callers can pass the flags through unconditionally.
func OpenCacheFromFlags(enabled bool, dir string, clear bool) (*Cache, error) {
	if !enabled && dir == "" && !clear {
		return nil, nil
	}
	if dir == "" {
		var err error
		if dir, err = DefaultCacheDir(); err != nil {
			return nil, err
		}
	}
	c, err := OpenCache(CacheDir(dir))
	if err != nil {
		return nil, err
	}
	if clear {
		if err := c.Clear(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// SimCacheKey derives the content-addressed key of one simulator run
// from the run's effective configuration (RMW type already set), the
// trace source, and the workload seed and scale (non-positive scale
// normalizes to 1). Generator-built sources additionally contribute a
// digest of their profile parameters, so a hand-tuned profile sharing a
// benchmark's name never aliases the stock entries. Two runs with equal
// keys produce identical results.
func SimCacheKey(cfg SimConfig, src TraceSource, seed int64, scale float64) CacheKey {
	return simcache.SimKey(cfg, src, seed, scale)
}

// LitmusCacheKey derives the key of one litmus verdict from the canonical
// textual rendering of the test (program, condition and expectations) and
// the atomicity type checked.
func LitmusCacheKey(t *Test, typ AtomicityType) CacheKey {
	return engine.LitmusVerdictKey(t, typ)
}
