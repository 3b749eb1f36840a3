package memmodeltest

import (
	"slices"

	"repro/internal/memmodel"
)

// AdjacentRMW reports whether every RMW of x reads from the write just
// before its write half in ws, the condition memmodel.EnumUniprocAdjacentRMW
// adds to uniproc. It is the tests' reference for that condition, written
// from Execution.ReadsFrom and Execution.WSOrder alone: it pairs the
// halves by their RMW identifier, not by their event indices.
func AdjacentRMW(x *memmodel.Execution) bool {
	for _, w := range x.Events {
		if w.Kind != memmodel.KindRMWWrite {
			continue
		}
		for _, r := range x.Events {
			if r.Kind != memmodel.KindRMWRead || r.RMW != w.RMW {
				continue
			}
			src, ok := x.ReadsFrom(r.Index)
			order := x.WSOrder(w.Addr)
			if i := slices.Index(order, w.Index); !ok || i < 1 || order[i-1] != src {
				return false
			}
		}
	}
	return true
}
