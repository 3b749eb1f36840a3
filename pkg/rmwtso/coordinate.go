package rmwtso

import (
	"repro/internal/engine"
	"repro/internal/experiments"
)

// Coordination summarizes how a plan job's units executed when the
// report needs saying so: the dead-lettered units of a partial sweep.
type Coordination = experiments.Coordination

// DeadUnit is one dead-lettered unit.
type DeadUnit = experiments.DeadUnit

// FaultInjector decides, before each execution of a plan unit, whether to
// inject a fault: return nil to execute normally, or an error to fail the
// execution without simulating, which dead-letters the unit. Fault
// injection exists for tests, demos and CI drills.
type FaultInjector = engine.FaultInjector

// WithFaultInjector makes every plan unit the Runner executes (RunPlan,
// Submit) consult f first. Nil, the default, injects nothing.
func WithFaultInjector(f FaultInjector) Option { return engine.WithFaultInjector(f) }

// DeadLetterError reports a plan job that finished with dead-lettered
// units: every other unit finished, but the listed units failed, each
// after its one execution. RunPlan returns the partial shard beside the
// error, and Partial is that same shard: the completed units plus the
// coordination section that lists the dead letters with their failure
// reasons, so Plan.Report still renders the partial report.
type DeadLetterError = engine.DeadLetterError
