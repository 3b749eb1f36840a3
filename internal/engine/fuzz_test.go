package engine_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
)

// FuzzDecodeShard feeds arbitrary bytes to the shard-artifact decoder,
// which reads files a fleet ships back. It must never panic; an accepted
// artifact must re-encode to one that decodes to an equal shard.
//
// The seed corpus is a real encoded shard (one simulated unit), its
// truncations, and the same envelope stamped with schema version 1.
func FuzzDecodeShard(f *testing.F) {
	spec := experiments.Table3Specs()[0]
	spec.Types = []core.AtomicityType{core.Type2}
	plan, err := engine.BuildPlan(experiments.Options{Cores: 2, Scale: 0.01, Seed: 1}, []experiments.BenchmarkSpec{spec})
	if err != nil {
		f.Fatal(err)
	}
	sr, err := engine.New().RunPlan(nil, plan, engine.FullShard())
	if err != nil {
		f.Fatal(err)
	}
	data, err := sr.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 2} {
		f.Add(data[:n])
	}
	current := fmt.Sprintf(`"schema_version":%d,`, engine.ShardSchemaVersion)
	f.Add(bytes.Replace(data, []byte(current), []byte(`"schema_version":1,`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := engine.DecodeShard(data)
		if err != nil {
			return // rejected artifacts just must not panic
		}
		if s == nil {
			t.Fatal("DecodeShard returned neither a shard nor an error")
		}
		again, err := s.Encode()
		if err != nil {
			t.Fatalf("re-encoding an accepted shard: %v", err)
		}
		back, err := engine.DecodeShard(again)
		if err != nil {
			t.Fatalf("re-encoded shard rejected: %v", err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("re-encoded shard decodes to %+v, want %+v", back, s)
		}
	})
}
