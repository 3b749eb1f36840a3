// Package cliflags holds the flag plumbing the rmwtso binaries share —
// the -cache/-cache-dir/-cache-clear trio, -format validation, and the
// positive/non-negative value checks — so the spellings, help strings
// and error messages cannot drift between cmd/experiments, cmd/litmus,
// cmd/rmwsim and cmd/rmwtso-serve. It deliberately imports nothing from
// the rest of the module: it is pure flag-layer glue.
package cliflags

import (
	"flag"
	"fmt"
	"strings"
	"time"
)

// Cache is the registered -cache/-cache-dir/-cache-clear trio. The
// values feed rmwtso.OpenCacheFromFlags unchanged.
type Cache struct {
	// Enabled is -cache, Dir is -cache-dir, Clear is -cache-clear.
	Enabled *bool
	Dir     *string
	Clear   *bool
}

// RegisterCache registers the cache trio on the flag set. The result
// cache holds simulation results only, so the help text names them.
func RegisterCache(fs *flag.FlagSet) Cache {
	return Cache{
		Enabled: fs.Bool("cache", false, "cache simulation results (default directory: ~/.cache/rmwtso)"),
		Dir:     fs.String("cache-dir", "", "cache simulation results under this directory (implies -cache)"),
		Clear:   fs.Bool("cache-clear", false, "clear the cache directory before running (implies -cache)"),
	}
}

// Format is a registered -format flag with its allowed value set.
type Format struct {
	// Value is the parsed flag value.
	Value   *string
	name    string
	allowed []string
}

// RegisterFormat registers a format flag with the given name, default
// and usage; Validate accepts exactly the allowed values.
func RegisterFormat(fs *flag.FlagSet, name, def, usage string, allowed ...string) *Format {
	return &Format{Value: fs.String(name, def, usage), name: name, allowed: allowed}
}

// Get returns the flag's current value.
func (f *Format) Get() string { return *f.Value }

// Validate rejects values outside the allowed set with the binaries'
// canonical message.
func (f *Format) Validate() error {
	for _, a := range f.allowed {
		if *f.Value == a {
			return nil
		}
	}
	return fmt.Errorf("unknown -%s %q (want %s)", f.name, *f.Value, orList(f.allowed))
}

// orList renders ["a","b","c"] as "a, b or c".
func orList(items []string) string {
	switch len(items) {
	case 0:
		return ""
	case 1:
		return items[0]
	}
	return strings.Join(items[:len(items)-1], ", ") + " or " + items[len(items)-1]
}

// WasSet reports whether the named flag was given explicitly on the
// command line (a parsed flag set).
func WasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// NonNegativeInt rejects negative values of a count flag whose zero
// means "default".
func NonNegativeInt(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("-%s must be non-negative, got %d", name, v)
	}
	return nil
}

// PositiveInt rejects non-positive values of a flag that always needs a
// positive count.
func PositiveInt(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("-%s must be positive, got %d", name, v)
	}
	return nil
}

// PositiveIntIfSet rejects negative values always, and zero only when
// the flag was given explicitly — the unset default 0 means "keep the
// preset".
func PositiveIntIfSet(fs *flag.FlagSet, name string, v int) error {
	if v < 0 || (v == 0 && WasSet(fs, name)) {
		return fmt.Errorf("-%s must be positive, got %d", name, v)
	}
	return nil
}

// PositiveFloat rejects non-positive values of an always-positive flag.
func PositiveFloat(name string, v float64) error {
	if v <= 0 {
		return fmt.Errorf("-%s must be positive, got %g", name, v)
	}
	return nil
}

// PositiveFloatIfSet is PositiveIntIfSet for float flags.
func PositiveFloatIfSet(fs *flag.FlagSet, name string, v float64) error {
	if v < 0 || (v == 0 && WasSet(fs, name)) {
		return fmt.Errorf("-%s must be positive, got %g", name, v)
	}
	return nil
}

// PositiveDurationIfSet is PositiveIntIfSet for duration flags.
func PositiveDurationIfSet(fs *flag.FlagSet, name string, v time.Duration) error {
	if v < 0 || (v == 0 && WasSet(fs, name)) {
		return fmt.Errorf("-%s must be positive, got %v", name, v)
	}
	return nil
}
