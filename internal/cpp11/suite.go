package cpp11

import "repro/internal/memmodel"

// Locations used by the example programs.
const (
	locX memmodel.Addr = 0
	locY memmodel.Addr = 1
)

// SCStoreBuffering is the Dekker/store-buffering idiom written with SC
// atomics: each thread SC-stores one flag and SC-loads the other. The
// C/C++11 model forbids both loads returning 0; a correct compilation to
// TSO must preserve that.
func SCStoreBuffering() *Program {
	p := NewProgram("sc-store-buffering")
	p.AddThread(SCStore(locX, 1), SCLoad(locY, "r0"))
	p.AddThread(SCStore(locY, 1), SCLoad(locX, "r1"))
	return p
}

// SCMessagePassing is message passing with both the data and the flag as SC
// atomics: observing the flag set implies observing the data.
func SCMessagePassing() *Program {
	p := NewProgram("sc-message-passing")
	p.AddThread(SCStore(locX, 1), SCStore(locY, 1))
	p.AddThread(SCLoad(locY, "r0"), SCLoad(locX, "r1"))
	return p
}

// MessagePassingSCFlag is the publication idiom with non-atomic data and an
// SC atomic flag, written without the guarding branch (the model has no
// control flow). In executions where the reader misses the flag it reads
// the data concurrently with the writer, so the program is racy under
// C/C++11 -- it documents that the race detector finds exactly this, and
// that racy programs make every mapping vacuously sound.
func MessagePassingSCFlag() *Program {
	p := NewProgram("mp-sc-flag")
	p.AddThread(Store(locX, 1), SCStore(locY, 1))
	p.AddThread(SCLoad(locY, "r0"), Load(locX, "r1"))
	return p
}

// RacyMessagePassing is the same idiom with a plain (non-atomic) flag: it
// has a data race on the flag and on the data, so the program's behaviour
// is undefined and every mapping is vacuously sound for it.
func RacyMessagePassing() *Program {
	p := NewProgram("racy-message-passing")
	p.AddThread(Store(locX, 1), Store(locY, 1))
	p.AddThread(Load(locY, "r0"), Load(locX, "r1"))
	return p
}

// SCIRIW is the independent-reads-of-independent-writes idiom with SC
// atomics: the two reader threads must agree on the order of the two
// writes.
func SCIRIW() *Program {
	p := NewProgram("sc-iriw")
	p.AddThread(SCStore(locX, 1))
	p.AddThread(SCStore(locY, 1))
	p.AddThread(SCLoad(locX, "r0"), SCLoad(locY, "r1"))
	p.AddThread(SCLoad(locY, "r2"), SCLoad(locX, "r3"))
	return p
}

// ValidationPrograms returns the race-free programs that validate the
// Table 4 mappings. SCStoreBuffering is the one that separates the
// mappings: the write-mapping with type-3 RMWs fails on it, exactly as
// the paper's appendix argues (Dekker's counterexample).
func ValidationPrograms() []*Program {
	return ProgramsByGroup(GroupValidation)
}
