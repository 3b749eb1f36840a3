package cpp11

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/memmodel"
)

func TestMappingStringAndParse(t *testing.T) {
	names := map[Mapping]string{
		ReadWriteMapping: "read-write-mapping",
		ReadMapping:      "read-mapping",
		WriteMapping:     "write-mapping",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if Mapping(9).String() == "" {
		t.Error("unknown mapping should still render")
	}
}

func TestMappingPredicates(t *testing.T) {
	if !ReadWriteMapping.MapsSCLoadToRMW() || !ReadWriteMapping.MapsSCStoreToRMW() {
		t.Error("read-write-mapping must map both to RMWs")
	}
	if !ReadMapping.MapsSCLoadToRMW() || ReadMapping.MapsSCStoreToRMW() {
		t.Error("read-mapping must map only SC loads to RMWs")
	}
	if WriteMapping.MapsSCLoadToRMW() || !WriteMapping.MapsSCStoreToRMW() {
		t.Error("write-mapping must map only SC stores to RMWs")
	}
	if len(AllMappings()) != 3 {
		t.Error("AllMappings should list the three Table 4 mappings")
	}
}

func TestCompileInstructionSelection(t *testing.T) {
	p := MessagePassingSCFlag() // non-atomic data store, SC flag store; SC flag load, non-atomic data load
	for _, m := range AllMappings() {
		compiled, err := Compile(p, m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if err := compiled.Validate(); err != nil {
			t.Fatalf("%s: compiled program invalid: %v", m, err)
		}
		// Thread 0: Store(x) stays a plain write; SCStore(y) becomes an RMW
		// iff the mapping maps SC stores.
		t0 := compiled.Threads[0]
		if t0[0].Kind != memmodel.InstrWrite {
			t.Errorf("%s: non-atomic store compiled to %v", m, t0[0].Kind)
		}
		wantStore := memmodel.InstrWrite
		if m.MapsSCStoreToRMW() {
			wantStore = memmodel.InstrRMW
		}
		if t0[1].Kind != wantStore {
			t.Errorf("%s: SC store compiled to %v, want %v", m, t0[1].Kind, wantStore)
		}
		// Thread 1: SCLoad(y) becomes an RMW iff the mapping maps SC loads;
		// the plain load stays a load.
		t1 := compiled.Threads[1]
		wantLoad := memmodel.InstrRead
		if m.MapsSCLoadToRMW() {
			wantLoad = memmodel.InstrRMW
		}
		if t1[0].Kind != wantLoad {
			t.Errorf("%s: SC load compiled to %v, want %v", m, t1[0].Kind, wantLoad)
		}
		if t1[1].Kind != memmodel.InstrRead {
			t.Errorf("%s: non-atomic load compiled to %v", m, t1[1].Kind)
		}
	}
}

func TestCompilePreservesInitAndRejectsInvalid(t *testing.T) {
	p := SCStoreBuffering()
	p.SetInit(locX, 5)
	compiled, err := Compile(p, ReadMapping)
	if err != nil {
		t.Fatal(err)
	}
	if compiled.Init[locX] != 5 {
		t.Error("initial values must be preserved by compilation")
	}
	if _, err := Compile(NewProgram("bad"), ReadMapping); err == nil {
		t.Error("compiling an invalid program must fail")
	}
}

func TestCompiledSCStoreValueSemantics(t *testing.T) {
	// A compiled SC store must still store the same value: run the compiled
	// program and check the final memory.
	p := NewProgram("store-value")
	p.AddThread(SCStore(locX, 7))
	compiled, err := Compile(p, WriteMapping)
	if err != nil {
		t.Fatal(err)
	}
	set, err := core.NewModel(core.Type1).Outcomes(compiled)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range set.Outcomes() {
		if o.Memory[locX] != 7 {
			t.Errorf("compiled SC store wrote %d, want 7", o.Memory[locX])
		}
	}
}

func TestProjectOutcomeDropsHiddenRegisters(t *testing.T) {
	o := core.Outcome{Registers: map[string]memmodel.Value{
		"P0:r0":    1,
		"P0:_scw0": 0,
		"P1:_scw1": 1,
	}}
	got := ProjectOutcome(o)
	if len(got) != 1 || got["P0:r0"] != 1 {
		t.Errorf("ProjectOutcome = %v", got)
	}
}

// TestTable4MappingSoundness is the executable version of the paper's
// appendix A: for the SC store-buffering program, the read-write-mapping
// and read-mapping are sound for all three RMW atomicity types, and the
// write-mapping is sound for type-1 and type-2 but NOT for type-3.
func TestTable4MappingSoundness(t *testing.T) {
	p := SCStoreBuffering()
	type key struct {
		m   Mapping
		typ core.AtomicityType
	}
	wantSound := map[key]bool{
		{ReadWriteMapping, core.Type1}: true,
		{ReadWriteMapping, core.Type2}: true,
		{ReadWriteMapping, core.Type3}: true,
		{ReadMapping, core.Type1}:      true,
		{ReadMapping, core.Type2}:      true,
		{ReadMapping, core.Type3}:      true,
		{WriteMapping, core.Type1}:     true,
		{WriteMapping, core.Type2}:     true,
		{WriteMapping, core.Type3}:     false,
	}
	for k, want := range wantSound {
		res, err := ValidateMapping(p, k.m, k.typ)
		if err != nil {
			t.Fatalf("%s/%s: %v", k.m, k.typ, err)
		}
		if res.Racy {
			t.Fatalf("%s is race-free but reported racy", p.Name)
		}
		if res.Sound != want {
			t.Errorf("%s with %s: sound=%v, want %v (counterexamples %v)",
				k.m, k.typ, res.Sound, want, res.Counterexamples)
		}
		if !want && len(res.Counterexamples) == 0 {
			t.Errorf("%s with %s: unsound result must carry a counterexample", k.m, k.typ)
		}
	}
}

// TestWriteMappingType3CounterexampleIsDekker checks that the specific
// counterexample for the write-mapping with type-3 RMWs is the Dekker
// outcome the paper names: both SC loads returning 0.
func TestWriteMappingType3CounterexampleIsDekker(t *testing.T) {
	res, err := ValidateMapping(SCStoreBuffering(), WriteMapping, core.Type3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sound {
		t.Fatal("write-mapping with type-3 RMWs must be unsound")
	}
	want := RegisterKey(map[string]memmodel.Value{"P0:r0": 0, "P1:r1": 0})
	found := false
	for _, c := range res.Counterexamples {
		if c == want {
			found = true
		}
	}
	if !found {
		t.Errorf("counterexamples %v do not include the Dekker outcome %q", res.Counterexamples, want)
	}
}

// TestSemanticsValidateMatchesOneShot pins that validating a mapping
// under all three types in one walk, on an analysis made once, gives
// exactly the one-shot ValidateMapping result of each type, for every
// registered program and mapping, with the analysis shared read-only by
// concurrent calls, as the engine's mapping batches share it.
func TestSemanticsValidateMatchesOneShot(t *testing.T) {
	for _, p := range AllPrograms() {
		sem, err := Analyze(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		var wg sync.WaitGroup
		for _, m := range AllMappings() {
			types := core.AllTypes()
			want := make([]ValidationResult, len(types))
			for i, typ := range types {
				var err error
				if want[i], err = ValidateMapping(p, m, typ); err != nil {
					t.Fatalf("%s %s %s: %v", p.Name, m, typ, err)
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := sem.Validate(context.Background(), m, types, 1)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s: Validate = %+v, %v; ValidateMapping = %+v", p.Name, m, got, err, want)
				}
			}()
		}
		wg.Wait()
	}
	if _, err := (&Semantics{}).Validate(context.Background(), ReadMapping, core.AllTypes(), 1); err == nil {
		t.Fatal("Validate on a Semantics not built by Analyze succeeded")
	}
}

func TestRacyProgramIsVacuouslySound(t *testing.T) {
	res, err := ValidateMapping(RacyMessagePassing(), WriteMapping, core.Type3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Racy {
		t.Fatal("program must be racy")
	}
	if !res.Sound {
		t.Error("racy programs have undefined behaviour; every mapping is vacuously sound")
	}
}

func TestValidationResultString(t *testing.T) {
	res, err := ValidateMapping(SCStoreBuffering(), WriteMapping, core.Type3)
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "UNSOUND") || !strings.Contains(s, "counterexample") {
		t.Errorf("unsound result rendering missing pieces: %q", s)
	}
	sound, err := ValidateMapping(SCStoreBuffering(), ReadMapping, core.Type2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sound.String(), "SOUND") {
		t.Errorf("sound result rendering missing verdict: %q", sound.String())
	}
}
