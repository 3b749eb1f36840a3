// Package chaos is the repository's seeded, deterministic
// fault-injection layer: the hook points the disk I/O paths consult
// before acting, and the injector that decides — from an explicit
// seed and an explicit rule list, never ambient randomness — whether to
// corrupt, delay, refuse or kill at each one.
//
// Production code pays one atomic load per hook when no injector is
// installed. Faults are turned on either programmatically (Install) or,
// for os/exec worker processes scripted by the simulation harness,
// through the RMWTSO_CHAOS environment variable carrying a JSON Spec.
// Every injected fault is logged to stderr with its rule index and fire
// count, so a failing scenario's transcript shows exactly which faults
// fired in which order; replaying with the same seed and single-threaded
// hook order reproduces the same decisions.
//
// The fault vocabulary matches what production actually suffers:
//
//   - delay — the operation sleeps first (stragglers, slow disks);
//   - flip — one seeded bit of the data is inverted (disk or wire
//     corruption; checksummed readers must detect it);
//   - enospc — the operation fails with ENOSPC (disk full mid-sweep);
//   - kill — the process exits with KillExitCode, for writes after
//     emitting only the first At bytes of the temp file (SIGKILL
//     mid-artifact-write; the atomic-rename discipline must ensure no
//     reader ever observes the torn prefix).
package chaos

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Env is the environment variable a process reads a JSON Spec from to
// arm fault injection at startup (see FromEnv). The simulation harness
// sets it on the worker processes it scripts.
const Env = "RMWTSO_CHAOS"

// KillExitCode is the exit status of an injected kill: 137, the shell's
// rendering of SIGKILL, so scripted scenarios assert on the same code a
// real `kill -9` would produce.
const KillExitCode = 137

// The hook points production code consults. A Rule's Hook must name one
// of these.
const (
	// HookWrite gates atomicio.WriteFile — every artifact and cache
	// entry published to disk.
	HookWrite = "atomicio.write"
	// HookCacheRead gates the simcache disk tier's entry reads.
	HookCacheRead = "simcache.read"
)

// The fault kinds a Rule can inject.
const (
	// KindDelay sleeps DelayMS before the operation proceeds.
	KindDelay = "delay"
	// KindFlip inverts one seeded bit of the operation's data (the bytes
	// being written or read).
	KindFlip = "flip"
	// KindENOSPC fails the operation with syscall.ENOSPC.
	KindENOSPC = "enospc"
	// KindKill exits the process with KillExitCode; on HookWrite only
	// the first At bytes of the temp file are emitted first.
	KindKill = "kill"
)

// ErrKilled is the error a hook returns in place of process death when a
// test overrides the injector's Exit function; production kills never
// return.
var ErrKilled = fmt.Errorf("chaos: injected kill")

// hooks and kinds are the valid Rule.Hook and Rule.Kind values; every
// kind is injectable at every hook.
var (
	hooks = map[string]bool{HookWrite: true, HookCacheRead: true}
	kinds = map[string]bool{KindDelay: true, KindFlip: true, KindENOSPC: true, KindKill: true}
)

// Rule is one fault-injection decision: at which hook, on which targets,
// which fault, and how often. Rules fire independently; several rules may
// fire on one invocation (a delayed, bit-flipped write), applied in spec
// order with the first error or kill winning.
type Rule struct {
	// Hook names the hook point (HookWrite, HookCacheRead, ...).
	Hook string `json:"hook"`
	// Match restricts the rule to invocations whose target (the file
	// path) contains it as a substring. Empty matches every invocation of
	// the hook.
	Match string `json:"match,omitempty"`
	// Kind is the fault (KindDelay, KindFlip, KindENOSPC, KindKill).
	Kind string `json:"kind"`
	// After skips the first After matching invocations — "the disk fills
	// after 5 writes", "the third read is slow".
	After int `json:"after,omitempty"`
	// Count bounds how many times the rule fires; 0 is unlimited.
	Count int `json:"count,omitempty"`
	// Prob, when in (0, 1), fires the rule with that probability (drawn
	// from the injector's seeded source); 0 fires deterministically on
	// every eligible invocation.
	Prob float64 `json:"prob,omitempty"`
	// At is the kill-at-byte offset for KindKill on HookWrite: the temp
	// file receives only the first At bytes before the process dies.
	// Ignored by other kinds and clamped to the data length.
	At int `json:"at,omitempty"`
	// DelayMS is the KindDelay sleep in milliseconds.
	DelayMS int `json:"delay_ms,omitempty"`
}

// validate rejects rules with an unknown hook or fault, or with bounds
// out of range.
func (r Rule) validate(i int) error {
	if !hooks[r.Hook] {
		return fmt.Errorf("chaos: rule %d: unknown hook %q", i, r.Hook)
	}
	if !kinds[r.Kind] {
		return fmt.Errorf("chaos: rule %d: unknown fault %q", i, r.Kind)
	}
	if r.After < 0 || r.Count < 0 || r.At < 0 || r.DelayMS < 0 {
		return fmt.Errorf("chaos: rule %d: negative after/count/at/delay_ms", i)
	}
	if r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("chaos: rule %d: probability %g outside [0, 1]", i, r.Prob)
	}
	if r.Kind == KindDelay && r.DelayMS == 0 {
		return fmt.Errorf("chaos: rule %d: delay rule needs delay_ms", i)
	}
	return nil
}

// Spec is the serializable description of an injector: the seed behind
// every random decision and the rule list. It is what the RMWTSO_CHAOS
// environment variable carries between the simulation harness and the
// worker processes it scripts.
type Spec struct {
	// Seed drives bit positions and probability draws deterministically.
	// Zero means 1 (an explicit seed keeps replays honest).
	Seed int64 `json:"seed"`
	// Rules is the fault list, applied in order.
	Rules []Rule `json:"rules"`
}

// Encode renders the spec as the JSON string Env carries.
func (s Spec) Encode() string {
	data, err := json.Marshal(s)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("chaos: encoding spec: %v", err))
	}
	return string(data)
}

// WriteFault is the outcome of the write hook: the (possibly corrupted)
// bytes to write, a kill-at-byte directive, or an error to fail with.
type WriteFault struct {
	// Data is what should actually be written (bit-flipped when a flip
	// rule fired, the input otherwise).
	Data []byte
	// KillAt, when >= 0, directs the writer to emit only the first
	// KillAt bytes of its temp file and then call Kill.
	KillAt int
	// Err, when non-nil, fails the write (ENOSPC).
	Err error
}

// Injector decides fault injection at every hook. Build one with New (or
// Parse/FromEnv), then Install it; all methods are safe for concurrent
// use, with random draws serialized so a given seed yields one decision
// sequence.
type Injector struct {
	spec Spec
	// Exit replaces os.Exit for KindKill, so unit tests can observe kills
	// without dying. Set it before Install; after an overridden "exit"
	// the hook returns ErrKilled.
	Exit func(code int)
	// Sleep replaces time.Sleep for KindDelay, for tests that must not
	// spend wall-clock time.
	Sleep func(d time.Duration)
	// Logf replaces the stderr fault log, for tests.
	Logf func(format string, args ...any)

	mu    sync.Mutex
	rng   *rand.Rand
	seen  []int // matching invocations per rule
	fired []int // fires per rule
}

// New validates the spec and builds its injector.
func New(spec Spec) (*Injector, error) {
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	for i, r := range spec.Rules {
		if err := r.validate(i); err != nil {
			return nil, err
		}
	}
	return &Injector{
		spec:  spec,
		Exit:  os.Exit,
		Sleep: time.Sleep,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
		rng:   rand.New(rand.NewSource(spec.Seed)),
		seen:  make([]int, len(spec.Rules)),
		fired: make([]int, len(spec.Rules)),
	}, nil
}

// Parse builds an injector from a JSON Spec string (the Env payload).
func Parse(s string) (*Injector, error) {
	var spec Spec
	if err := json.Unmarshal([]byte(s), &spec); err != nil {
		return nil, fmt.Errorf("chaos: unparsable %s spec: %w", Env, err)
	}
	return New(spec)
}

// FromEnv builds an injector from the RMWTSO_CHAOS environment variable.
// It reports (nil, false, nil) when the variable is unset or empty.
func FromEnv() (*Injector, bool, error) {
	s := strings.TrimSpace(os.Getenv(Env))
	if s == "" {
		return nil, false, nil
	}
	in, err := Parse(s)
	if err != nil {
		return nil, false, err
	}
	return in, true, nil
}

// Seed returns the injector's seed, for banners and replay lines.
func (in *Injector) Seed() int64 { return in.spec.Seed }

// String summarizes the injector for startup banners.
func (in *Injector) String() string {
	return fmt.Sprintf("seed %d, %d rules", in.spec.Seed, len(in.spec.Rules))
}

// Fired returns the per-rule fire counts, for tests and scenario
// assertions ("the ENOSPC rule actually fired").
func (in *Injector) Fired() []int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]int(nil), in.fired...)
}

// decide walks the rules matching (hook, target) and returns the indexes
// of those that fire this invocation, advancing the per-rule counters
// and the seeded probability stream.
func (in *Injector) decide(hook, target string) []int {
	in.mu.Lock()
	defer in.mu.Unlock()
	var fires []int
	for i, r := range in.spec.Rules {
		if r.Hook != hook || (r.Match != "" && !strings.Contains(target, r.Match)) {
			continue
		}
		in.seen[i]++
		if in.seen[i] <= r.After {
			continue
		}
		if r.Count > 0 && in.fired[i] >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && in.rng.Float64() >= r.Prob {
			continue
		}
		in.fired[i]++
		fires = append(fires, i)
	}
	return fires
}

// flip returns data with one seeded bit inverted (a copy; the caller's
// buffer is never mutated). Empty data is returned unchanged.
func (in *Injector) flip(data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	in.mu.Lock()
	pos := in.rng.Intn(len(data) * 8)
	in.mu.Unlock()
	out := append([]byte(nil), data...)
	out[pos/8] ^= 1 << (pos % 8)
	return out
}

// log reports one fired fault on the injector's log sink.
func (in *Injector) log(i int, hook, target string) {
	r := in.spec.Rules[i]
	in.Logf("chaos: %s: injected %s on %q (rule %d, fire %d)", hook, r.Kind, target, i, in.fired[i])
}

// Kill exits the process with KillExitCode (or, with Exit overridden,
// returns ErrKilled for the caller to surface). The write hook's caller
// invokes it after emitting the KillAt-byte torn prefix.
func (in *Injector) Kill() error {
	in.Exit(KillExitCode)
	return ErrKilled
}

// OnWrite consults the write rules for one atomic file publication and
// returns what the writer should do. The input buffer is never mutated.
func (in *Injector) OnWrite(path string, data []byte) WriteFault {
	out := WriteFault{Data: data, KillAt: -1}
	for _, i := range in.decide(HookWrite, path) {
		r := in.spec.Rules[i]
		in.log(i, HookWrite, path)
		switch r.Kind {
		case KindDelay:
			in.Sleep(time.Duration(r.DelayMS) * time.Millisecond)
		case KindFlip:
			out.Data = in.flip(out.Data)
		case KindENOSPC:
			out.Err = fmt.Errorf("chaos: injected disk full: %w", syscall.ENOSPC)
			return out
		case KindKill:
			out.KillAt = min(r.At, len(data))
			return out
		}
	}
	return out
}

// OnRead consults the cache-read rules for one disk-tier entry read,
// returning the (possibly corrupted) bytes or an injected read error.
// The input buffer is never mutated.
func (in *Injector) OnRead(path string, data []byte) ([]byte, error) {
	for _, i := range in.decide(HookCacheRead, path) {
		r := in.spec.Rules[i]
		in.log(i, HookCacheRead, path)
		switch r.Kind {
		case KindDelay:
			in.Sleep(time.Duration(r.DelayMS) * time.Millisecond)
		case KindFlip:
			data = in.flip(data)
		case KindENOSPC:
			return nil, fmt.Errorf("chaos: injected read error: %w", syscall.ENOSPC)
		case KindKill:
			return nil, in.Kill()
		}
	}
	return data, nil
}

// active is the installed injector; nil means every hook is a no-op
// beyond one atomic load.
var active atomic.Pointer[Injector]

// Install makes the injector the process-wide active one. Passing nil
// uninstalls.
func Install(in *Injector) { active.Store(in) }

// Uninstall deactivates fault injection.
func Uninstall() { active.Store(nil) }

// Current returns the active injector, or nil when faults are off. Hook
// sites check it once and skip all chaos work when nil.
func Current() *Injector { return active.Load() }
