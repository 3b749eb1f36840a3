package experiments

// Coordination summarizes how a sweep was executed when that is worth
// reporting: which units were dead-lettered and, for an HTTP fleet, which
// workers pulled how many units from the queue and how much retry/expiry
// churn the sweep saw. It is diagnostic metadata about the execution, not
// about the results — per-worker counts depend on scheduling, so the
// section is excluded from byte-identity comparisons (the result tables
// of a completed fleet sweep are still byte-identical to an unsharded
// run's).
type Coordination struct {
	// Mode names where the units executed: "in-process" (the engine's
	// static worker pool) or "http" (a fleet of workers on other machines
	// pulling from a lease queue over the versioned JSON protocol).
	Mode string `json:"mode"`
	// Workers aggregates per-worker unit counts, sorted by worker name.
	Workers []CoordWorker `json:"workers,omitempty"`
	// Retries counts requeues after failed attempts (nacks and lease
	// expiries); Expired counts the lease expiries specifically.
	Retries int `json:"retries"`
	Expired int `json:"expired"`
	// DeadLetters lists the units that exhausted their attempt budget,
	// sorted by unit ID. Non-empty means the sweep is partial: these
	// units are absent from the result tables.
	DeadLetters []DeadUnit `json:"dead_letters,omitempty"`
}

// CoordWorker is one worker's traffic in an HTTP fleet sweep.
type CoordWorker struct {
	// Worker is the worker's self-reported name.
	Worker string `json:"worker"`
	// Units counts the units the worker completed; Retries the attempts
	// it reported failed; Expired the leases it lost to expiry.
	Units   int `json:"units"`
	Retries int `json:"retries"`
	Expired int `json:"expired"`
}

// DeadUnit is one poisoned unit of a sweep: it failed on every attempt
// (a deadlock, a simulator error, injected faults, crashing workers) and
// was dead-lettered so the rest of the sweep could finish. The static
// pool makes one attempt per unit; a fleet makes up to its MaxAttempts.
type DeadUnit struct {
	// Unit is the plan unit's stable ID; Trace and Type restate its
	// human-readable identity.
	Unit  string `json:"unit"`
	Trace string `json:"trace,omitempty"`
	Type  string `json:"type,omitempty"`
	// Attempts is how many times the unit was handed out; Reasons holds
	// one failure reason per attempt, in order.
	Attempts int      `json:"attempts"`
	Reasons  []string `json:"reasons,omitempty"`
}
