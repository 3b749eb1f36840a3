// Example shardsweep demonstrates the Plan/Shard/Report API: it builds
// the deterministic sweep plan, runs it as two shards (the way two
// machines would), writes and re-reads the shard artifacts,
// merges them, and verifies the merged report encodes byte-identically
// to an unsharded run — the differential guarantee that makes sharding
// safe.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/pkg/rmwtso"
)

func main() {
	// A small sweep so the example finishes in seconds.
	opts := rmwtso.QuickOptions()
	opts.Cores = 4
	opts.Scale = 0.05

	plan, err := rmwtso.DefaultPlan(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %d units, fingerprint %.16s…\n", plan.Len(), plan.Fingerprint())
	for _, u := range plan.Units()[:3] {
		fmt.Printf("  unit %s = %s under %s (seed %d)\n", u.ID, u.Trace, u.Type, u.Seed)
	}
	fmt.Println("  …")

	// Run the plan as two shards, each on its own Runner — in production
	// these are separate processes on separate machines, connected only
	// by the artifact files they ship back.
	dir, err := os.MkdirTemp("", "shardsweep")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	paths := make([]string, 2)
	for i := range paths {
		shard := rmwtso.Shard{Index: i, Count: len(paths)}
		res, err := rmwtso.NewRunner().RunPlan(nil, plan, shard)
		if err != nil {
			log.Fatal(err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.json", i))
		if err := res.WriteFile(paths[i]); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("shard %s: %d units -> %s\n", shard, len(res.Units), filepath.Base(paths[i]))
	}

	// Merge the artifacts and build the report; compare against an
	// unsharded run of the same plan.
	mergedShard, err := rmwtso.MergeShardFiles(plan, paths...)
	if err != nil {
		log.Fatal(err)
	}
	merged, err := plan.Report(mergedShard)
	if err != nil {
		log.Fatal(err)
	}

	full, err := rmwtso.NewRunner().RunPlan(nil, plan, rmwtso.FullShard())
	if err != nil {
		log.Fatal(err)
	}
	unsharded, err := plan.Report(full)
	if err != nil {
		log.Fatal(err)
	}

	for _, format := range rmwtso.ReportFormats() {
		var a, b bytes.Buffer
		if err := rmwtso.EncodeReport(&a, merged, format); err != nil {
			log.Fatal(err)
		}
		if err := rmwtso.EncodeReport(&b, unsharded, format); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s encoding: %6d bytes, merged == unsharded: %v\n",
			format, a.Len(), bytes.Equal(a.Bytes(), b.Bytes()))
	}

	// Merging with a shard missing fails loudly — a partial sweep can
	// never masquerade as a finished one.
	if _, err := rmwtso.MergeShardFiles(plan, paths[0]); err != nil {
		fmt.Printf("merge with a missing shard correctly failed:\n  %v\n", truncate(err.Error(), 120))
	}
}

// truncate shortens long error messages for display.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
