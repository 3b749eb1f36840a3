package core

import "repro/internal/memmodel"

// DisallowedRows prepares the checker's plan for x's program and returns
// its number of RMW pairs and, for pair i, the row of events type t
// forbids between the pair's halves, in the layout of
// memmodel.Relation.Row.
func (c *Checker) DisallowedRows(x *memmodel.Execution) (pairs int, row func(t AtomicityType, i int) []uint64) {
	c.plan.prepare(x)
	pl := &c.plan
	return len(pl.pairs), func(t AtomicityType, i int) []uint64 {
		return pl.dis[t-1][i*pl.words : (i+1)*pl.words]
	}
}

// OraclePrograms returns the programs the oracle tests enumerate in full.
func OraclePrograms() []*memmodel.Program { return oraclePrograms() }

// OracleMaxEvents bounds the events of the candidates the tests hand to
// the linearization oracle.
const OracleMaxEvents = oracleMaxEvents
