package experiments

// Coordination summarizes how a sweep was executed when that is worth
// reporting: which units were dead-lettered. It is diagnostic metadata
// about the execution, not about the results, so a partial report's
// result tables hold exactly the units that finished.
type Coordination struct {
	// Mode names where the units executed: "in-process", the engine's
	// static worker pool.
	Mode string `json:"mode"`
	// Retries and Expired are always 0 on the static pool, which runs
	// each unit once; the keys stay so reports keep their bytes.
	Retries int `json:"retries"`
	Expired int `json:"expired"`
	// DeadLetters lists the units whose execution failed, sorted by unit
	// ID. Non-empty means the sweep is partial: these units are absent
	// from the result tables.
	DeadLetters []DeadUnit `json:"dead_letters,omitempty"`
}

// DeadUnit is one poisoned unit of a sweep: its execution failed (a
// deadlock, a simulator error, an injected fault) and it was
// dead-lettered so the rest of the sweep could finish. The static pool
// makes one attempt per unit.
type DeadUnit struct {
	// Unit is the plan unit's stable ID; Trace and Type restate its
	// human-readable identity.
	Unit  string `json:"unit"`
	Trace string `json:"trace,omitempty"`
	Type  string `json:"type,omitempty"`
	// Attempts is how many times the unit ran (1); Reasons holds one
	// failure reason per attempt, in order.
	Attempts int      `json:"attempts"`
	Reasons  []string `json:"reasons,omitempty"`
}
