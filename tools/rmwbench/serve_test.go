package main

import (
	"math/rand"
	"testing"
)

func TestScheduleKeepsTheMixExact(t *testing.T) {
	ops := schedule(rand.New(rand.NewSource(1)), 10*len(mixBlock))
	counts := map[opKind]int{}
	for _, op := range ops {
		counts[op]++
	}
	n := len(ops)
	for kind, share := range map[opKind]float64{
		opJobStatic: 0.1, opJobCoord: 0.1, opByKey: 0.5, opByUnit: 0.1,
		opEvents: 0.1, opReportText: 0.05, opMetrics: 0.05,
	} {
		if got := float64(counts[kind]) / float64(n); !near(got, share) {
			t.Errorf("op kind %d: share %g, want %g", kind, got, share)
		}
	}
	again := schedule(rand.New(rand.NewSource(1)), 10*len(mixBlock))
	for i := range ops {
		if ops[i] != again[i] {
			t.Fatal("the same seed gave two schedules")
		}
	}
}

func TestCountFrames(t *testing.T) {
	stream := "id: 0\nevent: sim\ndata: {}\n\nid: 1\nevent: coord\ndata: {}\n\nid: 2\nevent: sim\ndata: {}\n\nid: 3\nevent: done\ndata: {}\n\n"
	if sims, ok := countFrames([]byte(stream)); sims != 2 || !ok {
		t.Errorf("countFrames = %d, %v; want 2, true", sims, ok)
	}
	if _, ok := countFrames([]byte("event: sim\n\n")); ok {
		t.Error("a stream without done passed")
	}
	if _, ok := countFrames([]byte("event: done\n\nevent: sim\n\n")); ok {
		t.Error("a stream with frames after done passed")
	}
}

func TestSameReportIgnoresOnlyCoordination(t *testing.T) {
	ref := []byte("{\n \"a\": 1,\n \"b\": [\n  2\n ]\n}\n")
	coord := []byte("{\n \"a\": 1,\n \"b\": [\n  2\n ],\n \"coordination\": {\n  \"mode\": \"in-process\"\n }\n}\n")
	changed := []byte("{\n \"a\": 1,\n \"b\": [\n  3\n ],\n \"coordination\": {}\n}\n")
	for _, c := range []struct {
		got         []byte
		coordinated bool
		want        bool
	}{
		{ref, false, true},
		{coord, false, false},
		{coord, true, true},
		{changed, true, false},
		{ref, true, false},
	} {
		if got := sameReport(c.got, ref, c.coordinated); got != c.want {
			t.Errorf("sameReport(%q, coordinated=%v) = %v, want %v", c.got, c.coordinated, got, c.want)
		}
	}
}
