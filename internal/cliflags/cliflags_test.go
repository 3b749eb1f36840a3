package cliflags

import (
	"flag"
	"math"
	"testing"
)

// TestPositiveFloatRejectsNonFinite pins the float checks on the values
// the flag package parses but no float flag means: NaN and ±Inf fail
// with "must be finite", while the non-positive message is unchanged.
func TestPositiveFloatRejectsNonFinite(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.Float64("scale", 0, "")
	for _, c := range []struct {
		v    float64
		want string
	}{
		{math.NaN(), "-scale must be finite, got NaN"},
		{math.Inf(1), "-scale must be finite, got +Inf"},
		{math.Inf(-1), "-scale must be finite, got -Inf"},
		{-1, "-scale must be positive, got -1"},
	} {
		for name, err := range map[string]error{
			"PositiveFloat":      PositiveFloat("scale", c.v),
			"PositiveFloatIfSet": PositiveFloatIfSet(fs, "scale", c.v),
		} {
			if err == nil || err.Error() != c.want {
				t.Errorf("%s(%g) = %v, want %q", name, c.v, err, c.want)
			}
		}
	}
	if err := PositiveFloat("scale", 0); err == nil || err.Error() != "-scale must be positive, got 0" {
		t.Errorf("PositiveFloat(0) = %v", err)
	}
	if err := PositiveFloatIfSet(fs, "scale", 0); err != nil {
		t.Errorf("PositiveFloatIfSet(0) on an unset flag = %v, want nil", err)
	}
	if err := PositiveFloat("scale", 0.5); err != nil {
		t.Errorf("PositiveFloat(0.5) = %v", err)
	}
}
