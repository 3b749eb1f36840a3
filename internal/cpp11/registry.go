package cpp11

// Program groups: the race-free validation set used by Table 4 vs the
// additional illustrative idioms.
const (
	// GroupValidation tags the race-free programs that validate the Table 4
	// mappings.
	GroupValidation = "validation"
	// GroupIdiom tags the remaining example idioms (racy variants, IRIW).
	GroupIdiom = "idiom"
)

// programs is the built-in C/C++11 program set in order: the race-free
// validation set used by Table 4 first, then the illustrative idioms.
// Each constructor builds a fresh Program. Lookups go by the built
// program's Name, which TestBuildProgram holds unique across the table.
var programs = []struct {
	group string
	build func() *Program
}{
	{GroupValidation, SCStoreBuffering},
	{GroupValidation, SCMessagePassing},

	{GroupIdiom, MessagePassingSCFlag},
	{GroupIdiom, RacyMessagePassing},
	{GroupIdiom, SCIRIW},
}

// BuildProgram constructs a fresh instance of the built-in program with
// the given name, or nil.
func BuildProgram(name string) *Program {
	for _, e := range programs {
		if p := e.build(); p.Name == name {
			return p
		}
	}
	return nil
}

// ProgramsByGroup constructs every built-in program of the group, in
// table order.
func ProgramsByGroup(group string) []*Program {
	var out []*Program
	for _, e := range programs {
		if e.group == group {
			out = append(out, e.build())
		}
	}
	return out
}

// AllPrograms constructs every built-in program, in table order.
func AllPrograms() []*Program {
	out := make([]*Program, len(programs))
	for i, e := range programs {
		out[i] = e.build()
	}
	return out
}
