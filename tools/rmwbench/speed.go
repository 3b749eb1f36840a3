package main

import (
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// The reference machine's speed drifts by tens of percent over minutes,
// as a VM that shares its host does, and a run of the benchmark lasts
// seconds, so two sets of runs of the same code could differ by more than
// any useful bound. The drift is not uniform: code that allocates and
// writes memory slows by up to a third while code that only computes or
// reads barely moves. So each run also times a reference loop that
// allocates and writes as the repository's code does — it fills a map
// and sorts its keys — but runs no repository code. It is timed between
// the pieces of the run's work, while nothing else runs, and each piece's
// times are scaled by refPinnedMS / (the loop's median time around that
// piece): the time the piece would have taken at the speed at which the
// loop takes refPinnedMS.
//
// Measured on the reference machine over 500 seconds in a slow phase, the
// median warm sweep and litmus check times over 15-second windows had a
// quartile spread of 0.29 and 0.35; scaled by this loop, 0.07 and 0.09.
// A SHA-256 loop, which tracked the drift of a quiet phase, left 0.23 and
// 0.30, and loops of plain memory writes 0.10 and 0.12.
//
// The loop does not follow every change of speed: in one slow phase cold
// sweeps took 1.7 times as long as a few hours before, while the loop's
// time moved by less than a tenth. Scaling narrows the spread of one set
// of runs; two sets compare fairly only when their runs alternate.

// refPinnedMS is the reference loop's median time on the reference
// machine. Its value fixes only the unit the scaled times are in.
const refPinnedMS = 3.0

// refReps is how often the loop runs at each timing point, and refKeys
// the size of its map.
const (
	refReps = 5
	refKeys = 6000
)

// refSink keeps the loop's result live.
var refSink int

// refSamples times refReps runs of the reference loop, in ms. The
// collector is paused meanwhile, which first waits for a running
// collection to end, so no collection of the workload's heap is timed;
// the loop's garbage is left for the workload's next collection.
func refSamples() []float64 {
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	out := make([]float64, refReps)
	for i := range out {
		t0 := time.Now()
		refLoop()
		out[i] = ms(time.Since(t0))
	}
	return out
}

// refLoop fills a map of refKeys string keys to small slices and sorts
// the keys.
func refLoop() {
	m := make(map[string][]int)
	for i := 0; i < refKeys; i++ {
		k := strconv.Itoa(i*7919) + "-key"
		m[k] = append(m[k], i, i*2, i*3)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	refSink += len(keys[len(keys)/2])
}
