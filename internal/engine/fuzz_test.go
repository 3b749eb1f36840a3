package engine_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/sim"
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

// FuzzDecodeAckPayload feeds arbitrary bytes, as the ack payload of one
// unit of a quick plan, to the coordinator's payload decoder. A payload
// it accepts goes on, next to the other units' real results, through
// Plan.RunsPartial, BuildReport and every report encoder, the way
// CoordServer.assemble and the report after it take it. Each step must
// return an error or a value, never panic.
//
// The seed corpus is a real payload, a truncation of it, the payload with
// PerCore emptied and the payload renamed to another unit of the plan.
func FuzzDecodeAckPayload(f *testing.F) {
	o, plan, sr := ackFixture(f)
	units := plan.Units()
	target := units[0]
	payload := ackPayload(f, sr.Units[0], nil)
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Add(ackPayload(f, sr.Units[0], func(r *sim.Result) { r.PerCore = []sim.CoreStats{} }))
	f.Add(bytes.Replace(payload, []byte(units[0].ID), []byte(units[1].ID), 1))

	f.Fuzz(func(t *testing.T, payload []byte) {
		ur, err := engine.DecodeAckPayload(target, payload)
		if err != nil {
			return // rejected payloads just must not panic
		}
		if r := ur.Result; ur.Unit != target.ID || r == nil || r.Workload != target.Trace ||
			r.RMWType != target.Type || len(r.PerCore) != target.Key.Cores {
			t.Fatalf("accepted a payload for another unit or run as unit %s: %+v", target.ID, ur)
		}
		results := append([]engine.UnitResult{ur}, sr.Units[1:]...)
		runs, _, err := plan.RunsPartial(results)
		if err != nil {
			return
		}
		rep, err := experiments.BuildReport(o, runs)
		if err != nil {
			return
		}
		for _, format := range experiments.Formats() {
			enc, err := experiments.NewEncoder(format)
			if err != nil {
				t.Fatal(err)
			}
			_ = enc.Encode(io.Discard, rep) // an error (say, a NaN in JSON) is an outcome too
		}
	})
}

// ackFixture runs a quick plan (2 cores, every unit at the 8-iteration
// floor) whose unit results stand in for a fleet's acks.
func ackFixture(tb testing.TB) (experiments.Options, *engine.Plan, *engine.ShardResult) {
	tb.Helper()
	o := experiments.Options{Cores: 2, Scale: 0.01, Seed: 1}
	plan, err := engine.DefaultPlan(o)
	if err != nil {
		tb.Fatal(err)
	}
	sr, err := engine.New().RunPlan(nil, plan, engine.FullShard())
	if err != nil {
		tb.Fatal(err)
	}
	return o, plan, sr
}

// ackPayload encodes a unit result as a worker acks it, after edit (when
// non-nil) has changed a copy of its simulator result.
func ackPayload(tb testing.TB, ur engine.UnitResult, edit func(*sim.Result)) []byte {
	tb.Helper()
	if edit != nil {
		r := *ur.Result
		edit(&r)
		ur.Result = &r
	}
	data, err := json.Marshal(ur)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestDecodeAckPayloadRejectsForeignResults pins that the coordinator
// accepts a unit's ack only when it holds that unit's run: another
// unit's ID, a missing result, or a result of another trace, RMW type or
// core count is an error, not a silently wrong table.
func TestDecodeAckPayloadRejectsForeignResults(t *testing.T) {
	_, plan, sr := ackFixture(t)
	u := plan.Units()[0]
	if _, err := engine.DecodeAckPayload(u, ackPayload(t, sr.Units[0], nil)); err != nil {
		t.Fatalf("a real ack was rejected: %v", err)
	}
	other := sr.Units[1]
	other.Unit = u.ID // another unit's run, relabelled
	for name, data := range map[string][]byte{
		"another unit":    ackPayload(t, sr.Units[1], nil),
		"no result":       []byte(`{"unit":"` + string(u.ID) + `","result":null}`),
		"no cores":        ackPayload(t, sr.Units[0], func(r *sim.Result) { r.PerCore = nil }),
		"another trace":   ackPayload(t, sr.Units[0], func(r *sim.Result) { r.Workload = "bayes" }),
		"another type":    ackPayload(t, sr.Units[0], func(r *sim.Result) { r.RMWType = core.Type3 }),
		"relabelled run":  ackPayload(t, other, nil),
		"truncated":       ackPayload(t, sr.Units[0], nil)[:40],
		"not json at all": []byte("ok"),
	} {
		if _, err := engine.DecodeAckPayload(u, data); err == nil {
			t.Errorf("%s: ack accepted", name)
		}
	}
}
