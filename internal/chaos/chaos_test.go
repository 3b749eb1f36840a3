package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"syscall"
	"testing"
	"time"
)

// quiet builds an injector whose kills return instead of exiting, whose
// delays record instead of sleeping, and whose fault log is captured.
func quiet(t *testing.T, spec Spec) (*Injector, *[]time.Duration, *strings.Builder) {
	t.Helper()
	in, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	var log strings.Builder
	in.Exit = func(code int) {
		if code != KillExitCode {
			t.Errorf("kill exit code %d, want %d", code, KillExitCode)
		}
	}
	in.Sleep = func(d time.Duration) { slept = append(slept, d) }
	in.Logf = func(format string, args ...any) {
		log.WriteString(fmt.Sprintf(format+"\n", args...))
	}
	return in, &slept, &log
}

// TestValidation checks that New refuses each malformed rule with an
// error naming what is wrong — the hooks of the removed coordinator
// among the unknown ones — and accepts a spec of valid rules.
func TestValidation(t *testing.T) {
	bad := []struct {
		rule Rule
		want string
	}{
		{Rule{Hook: "nope", Kind: KindDelay, DelayMS: 1}, `unknown hook "nope"`},
		{Rule{Hook: "coordinator.lease", Kind: KindDelay, DelayMS: 1}, `unknown hook "coordinator.lease"`},
		{Rule{Hook: "coordinator.heartbeat", Kind: KindDelay, DelayMS: 1}, `unknown hook "coordinator.heartbeat"`},
		{Rule{Hook: "coordinator.ack", Kind: KindFlip}, `unknown hook "coordinator.ack"`},
		{Rule{Hook: HookCacheRead, Kind: "tear"}, `unknown fault "tear"`},
		{Rule{Hook: HookWrite, Kind: KindDelay}, "needs delay_ms"},
		{Rule{Hook: HookWrite, Kind: KindFlip, Prob: 1.5}, "outside [0, 1]"},
		{Rule{Hook: HookWrite, Kind: KindFlip, After: -1}, "negative"},
	}
	for _, tc := range bad {
		if _, err := New(Spec{Rules: []Rule{tc.rule}}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("rule %+v: error %v, want one containing %q", tc.rule, err, tc.want)
		}
	}
	good := Spec{Rules: []Rule{
		{Hook: HookWrite, Kind: KindKill, At: 10},
		{Hook: HookCacheRead, Kind: KindFlip, Prob: 0.5},
		{Hook: HookCacheRead, Kind: KindDelay, DelayMS: 200},
		{Hook: HookWrite, Kind: KindENOSPC, Count: 1},
	}}
	if _, err := New(good); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	spec := Spec{Seed: 42, Rules: []Rule{
		{Hook: HookWrite, Kind: KindENOSPC, Match: "shard", After: 5},
	}}
	in, err := Parse(spec.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if in.Seed() != 42 {
		t.Errorf("seed %d, want 42", in.Seed())
	}
	if _, err := Parse("{not json"); err == nil {
		t.Error("garbage spec parsed")
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv(Env, "")
	if _, ok, err := FromEnv(); ok || err != nil {
		t.Fatalf("empty env: ok=%v err=%v", ok, err)
	}
	t.Setenv(Env, Spec{Seed: 7}.Encode())
	in, ok, err := FromEnv()
	if !ok || err != nil || in.Seed() != 7 {
		t.Fatalf("set env: ok=%v err=%v", ok, err)
	}
	t.Setenv(Env, "{bad")
	if _, _, err := FromEnv(); err == nil {
		t.Fatal("bad env spec accepted")
	}
}

// TestWriteKillAtByte verifies the kill directive carries the clamped
// offset and fires only on matching paths.
func TestWriteKillAtByte(t *testing.T) {
	in, _, _ := quiet(t, Spec{Rules: []Rule{
		{Hook: HookWrite, Kind: KindKill, Match: "shard-0", At: 4},
	}})
	data := []byte("0123456789")
	if f := in.OnWrite("/tmp/other.json", data); f.KillAt != -1 || f.Err != nil {
		t.Fatalf("non-matching path faulted: %+v", f)
	}
	f := in.OnWrite("/tmp/shard-0.json", data)
	if f.KillAt != 4 {
		t.Fatalf("KillAt %d, want 4", f.KillAt)
	}
	// Clamp: At beyond the data length.
	in2, _, _ := quiet(t, Spec{Rules: []Rule{{Hook: HookWrite, Kind: KindKill, At: 999}}})
	if f := in2.OnWrite("x", data); f.KillAt != len(data) {
		t.Fatalf("KillAt %d, want clamp to %d", f.KillAt, len(data))
	}
}

// TestWriteENOSPCAfter verifies After skips the leading invocations and
// the error unwraps to syscall.ENOSPC.
func TestWriteENOSPCAfter(t *testing.T) {
	in, _, _ := quiet(t, Spec{Rules: []Rule{
		{Hook: HookWrite, Kind: KindENOSPC, After: 2},
	}})
	data := []byte("x")
	for i := 0; i < 2; i++ {
		if f := in.OnWrite("a", data); f.Err != nil {
			t.Fatalf("write %d faulted before After", i)
		}
	}
	f := in.OnWrite("a", data)
	if !errors.Is(f.Err, syscall.ENOSPC) {
		t.Fatalf("err %v, want ENOSPC", f.Err)
	}
}

// TestFlipDeterminism verifies a flip changes exactly one bit, never
// mutates the caller's buffer, and replays identically from the seed.
func TestFlipDeterminism(t *testing.T) {
	spec := Spec{Seed: 99, Rules: []Rule{{Hook: HookCacheRead, Kind: KindFlip}}}
	orig := []byte("the quick brown fox")

	run := func() []byte {
		in, _, _ := quiet(t, spec)
		got, err := in.OnRead("entry", orig)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different flips")
	}
	if bytes.Equal(a, orig) {
		t.Fatal("flip left data unchanged")
	}
	if !bytes.Equal(orig, []byte("the quick brown fox")) {
		t.Fatal("flip mutated the caller's buffer")
	}
	diff := 0
	for i := range a {
		for bit := 0; bit < 8; bit++ {
			if (a[i]^orig[i])&(1<<bit) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits flipped, want exactly 1", diff)
	}
}

// TestCountBound verifies Count caps the fires and Fired reports them.
func TestCountBound(t *testing.T) {
	in, slept, _ := quiet(t, Spec{Rules: []Rule{
		{Hook: HookCacheRead, Kind: KindDelay, DelayMS: 10, Count: 2},
	}})
	for i := 0; i < 5; i++ {
		if _, err := in.OnRead("entry", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(*slept))
	}
	if got := in.Fired(); got[0] != 2 {
		t.Fatalf("Fired %v, want [2]", got)
	}
}

// TestProbDeterminism verifies probability draws replay from the seed.
func TestProbDeterminism(t *testing.T) {
	spec := Spec{Seed: 5, Rules: []Rule{{Hook: HookCacheRead, Kind: KindKill, Prob: 0.5}}}
	run := func() []int {
		in, _, _ := quiet(t, spec)
		var pattern []int
		for i := 0; i < 20; i++ {
			if _, err := in.OnRead("entry", []byte("x")); errors.Is(err, ErrKilled) {
				pattern = append(pattern, i)
			}
		}
		return pattern
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 20 {
		t.Fatalf("degenerate fire pattern %v — pick a better seed", a)
	}
	if len(a) != len(b) {
		t.Fatalf("fire patterns differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fire patterns differ: %v vs %v", a, b)
		}
	}
}

// TestFlipMatchesTarget verifies a flip rule tears only the reads whose
// target matches, logs the fault, and stops at its Count.
func TestFlipMatchesTarget(t *testing.T) {
	in, _, log := quiet(t, Spec{Rules: []Rule{
		{Hook: HookCacheRead, Kind: KindFlip, Match: "torn", Count: 1},
	}})
	payload := []byte(`{"unit":"abc"}`)
	got, err := in.OnRead("steady.bin", payload)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("non-matching read torn: %q err %v", got, err)
	}
	got, err = in.OnRead("torn.bin", payload)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, payload) {
		t.Fatal("matching read not torn")
	}
	if !strings.Contains(log.String(), "flip") {
		t.Errorf("fault not logged: %q", log.String())
	}
	// Count exhausted: the second read passes clean.
	got, _ = in.OnRead("torn.bin", payload)
	if !bytes.Equal(got, payload) {
		t.Fatal("Count=1 rule fired twice")
	}
}

// TestKillReturnsErrKilledUnderTestExit verifies the Exit override turns
// a kill into ErrKilled instead of process death.
func TestKillReturnsErrKilledUnderTestExit(t *testing.T) {
	in, _, _ := quiet(t, Spec{Rules: []Rule{{Hook: HookCacheRead, Kind: KindKill}}})
	if _, err := in.OnRead("p", []byte("x")); !errors.Is(err, ErrKilled) {
		t.Fatalf("err %v, want ErrKilled", err)
	}
}

// TestInstallCurrent verifies the global registration round-trip.
func TestInstallCurrent(t *testing.T) {
	if Current() != nil {
		t.Fatal("injector active at test start")
	}
	in, _, _ := quiet(t, Spec{})
	Install(in)
	defer Uninstall()
	if Current() != in {
		t.Fatal("Current did not return the installed injector")
	}
	Uninstall()
	if Current() != nil {
		t.Fatal("Uninstall left an injector active")
	}
}
