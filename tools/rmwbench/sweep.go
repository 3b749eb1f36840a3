package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/pkg/rmwtso"
)

// sweepOptions is the plan shape of both sweep workloads and of
// serve-mix's large job.
func sweepOptions(seed int64, sz size) rmwtso.Options {
	o := rmwtso.DefaultOptions()
	o.Cores, o.Scale, o.Seed = sz.Cores, sz.Scale, seed
	return o
}

// dirSeq numbers the scratch directories a run creates.
var dirSeq atomic.Int64

// freshDir creates a new empty directory under the run's scratch dir.
func freshDir(e *env, prefix string) (string, error) {
	dir := filepath.Join(e.dir, fmt.Sprintf("%s-%d", prefix, dirSeq.Add(1)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// sweepResult is one sweep's output.
type sweepResult struct {
	report    []byte
	table1    bool
	memops    uint64
	cacheHits int // plan units served from the cache
}

// sweep is what one `cmd/experiments -format json` run does: RunPlan on a
// fresh Runner over cache, Plan.Runs, BuildReport (which model checks
// Tables 1 and 4) and JSON encoding.
func sweep(ctx context.Context, tr *tracer, req int64, opts rmwtso.Options, plan *rmwtso.Plan, cache *rmwtso.Cache, par int) (*sweepResult, error) {
	root := tr.start("sweep", nil, req)
	defer root.end()
	runner := rmwtso.NewRunner(rmwtso.WithParallelism(par), rmwtso.WithCache(cache))

	sp := tr.start("engine.runplan", root, req)
	sr, err := runner.RunPlan(ctx, plan, rmwtso.FullShard())
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.start("engine.plan_runs", root, req)
	runs, err := plan.Runs(sr.Units)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.start("experiments.build_report", root, req)
	rep, err := rmwtso.BuildReport(opts, runs)
	sp.end()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	sp = tr.start("experiments.encode_json", root, req)
	err = rmwtso.EncodeReport(&buf, rep, rmwtso.FormatJSON)
	sp.end()
	if err != nil {
		return nil, err
	}
	res := &sweepResult{report: buf.Bytes(), table1: rep.Table1Matches}
	for _, u := range sr.Units {
		res.memops += u.Result.TotalMemOps()
		if u.CacheHit {
			res.cacheHits++
		}
	}
	return res, nil
}

// checkReport records the output checks every sweep report must pass: it
// equals the reference bytes and Table 1 matches the paper.
func checkReport(o *outcome, res *sweepResult, ref []byte) {
	o.check(bytes.Equal(res.report, ref), "sweep report differs from the first repetition's")
	o.check(res.table1, "sweep report: Table 1 does not match the paper")
}

// checkPinned compares a report with the digest pinned for the default
// seed, when the run has the pinned size and seed.
func checkPinned(o *outcome, e *env, what, pinned string, data []byte) {
	if !e.size.Pinned || e.seed != defaultSeed {
		return
	}
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	o.check(got == pinned, "%s digest %s, pinned %s", what, got, pinned)
}

func setupSweepCold(ctx context.Context, e *env) (*fixture, error) {
	opts := sweepOptions(e.seed, e.size)
	plan, err := rmwtso.DefaultPlan(opts)
	if err != nil {
		return nil, err
	}
	var ref []byte
	req := int64(0)
	m := func(ctx context.Context, tr *tracer, p int) (*outcome, error) {
		o := &outcome{}
		for i := 0; i < portion(e.size.ColdReps, p, parts); i++ {
			req++
			dir, err := freshDir(e, "cold")
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			cache, err := rmwtso.OpenCache(rmwtso.CacheDir(dir))
			if err != nil {
				return nil, err
			}
			res, err := sweep(ctx, tr, req, opts, plan, cache, e.size.Parallelism)
			if err != nil {
				o.fail("cold sweep: %v", err)
				os.RemoveAll(dir)
				continue
			}
			o.done("sweep", t0, float64(res.memops))
			os.RemoveAll(dir)
			if ref == nil {
				ref = res.report
				checkPinned(o, e, "sweep report", pinnedReportDigest, ref)
			}
			checkReport(o, res, ref)
			o.check(res.cacheHits == 0, "cold sweep served %d units from an empty cache", res.cacheHits)
			o.lookups += uint64(plan.Len())
			o.hits += uint64(res.cacheHits)
		}
		return o, nil
	}
	return &fixture{measure: m, close: func() {}}, nil
}

func setupSweepWarm(ctx context.Context, e *env) (*fixture, error) {
	opts := sweepOptions(e.seed, e.size)
	plan, err := rmwtso.DefaultPlan(opts)
	if err != nil {
		return nil, err
	}
	dir, err := freshDir(e, "warm")
	if err != nil {
		return nil, err
	}
	cache, err := rmwtso.OpenCache(rmwtso.CacheDir(dir))
	if err != nil {
		return nil, err
	}
	cold, err := sweep(ctx, nil, 0, opts, plan, cache, e.size.Parallelism)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("populating the cache: %w", err)
	}
	ref := cold.report
	checked := false
	req := int64(0)
	m := func(ctx context.Context, tr *tracer, p int) (*outcome, error) {
		o := &outcome{}
		if !checked {
			checkPinned(o, e, "sweep report", pinnedReportDigest, ref)
			checked = true
		}
		for i := 0; i < portion(e.size.WarmReps, p, parts); i++ {
			req++
			t0 := time.Now()
			// A new handle starts with an empty memory tier, like a second
			// cmd/experiments -cache-dir process.
			cache, err := rmwtso.OpenCache(rmwtso.CacheDir(dir))
			if err != nil {
				return nil, err
			}
			res, err := sweep(ctx, tr, req, opts, plan, cache, e.size.Parallelism)
			if err != nil {
				o.fail("warm sweep: %v", err)
				continue
			}
			o.done("sweep", t0, float64(plan.Len()))
			checkReport(o, res, ref)
			st := cache.Stats()
			o.check(st.DiskHits == uint64(plan.Len()) && st.Misses == 0,
				"warm sweep: %d disk hits and %d misses for %d units", st.DiskHits, st.Misses, plan.Len())
			o.lookups += st.Hits() + st.Misses
			o.hits += st.Hits()
		}
		return o, nil
	}
	return &fixture{measure: m, close: func() { os.RemoveAll(dir) }}, nil
}
