package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// marshalOracle is what the JSON encoder must write for r:
// json.MarshalIndent's bytes plus a newline.
func marshalOracle(r *Report) ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// encodeJSON runs the JSON encoder into a buffer.
func encodeJSON(r *Report) ([]byte, error) {
	var buf bytes.Buffer
	err := JSONEncoder{}.Encode(&buf, r)
	return buf.Bytes(), err
}

// jsonFiller fills a value of any type reachable from Report with seeded
// data. Numbers, strings, nil against empty slices and maps, and absent
// against present pointers are drawn from edge cases as often as from
// plain values.
type jsonFiller struct {
	rng *rand.Rand
	// roundTrip keeps to values that decode back to themselves: valid
	// UTF-8 only, and no empty slice where omitempty would drop it.
	roundTrip bool
}

// edgeFloats are the numbers whose encoding has a rule of its own: signed
// zero, the subnormal minimum, both sides of the 1e-6 and 1e21 switches
// to exponent form, and a large exponent.
var edgeFloats = []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 9.99e-7, 1e21, 9.99e20, 1.5e300, -1.5e-300, 0.1, 58.9, -2.25, 1e20, 123456789}

// edgeStrings need every escape rule of encoding/json's string encoder.
var edgeStrings = []string{"", "plain", "<b>&</b>", "a\"b\\c", "\b\f\n\r\t", "\x00\x01\x1f\x7f", "é ü ☃ 🙂", "\u2028\u2029", "x\u2028y"}

// invalidStrings are not valid UTF-8: each bad byte becomes U+FFFD.
var invalidStrings = []string{"\xff", "a\xc3", "\xed\xa0\x80", "ok\xf0\x9f\x99"}

func (f *jsonFiller) float() float64 {
	if f.rng.Intn(2) == 0 {
		return edgeFloats[f.rng.Intn(len(edgeFloats))]
	}
	return (f.rng.Float64() - 0.3) * math.Pow(10, float64(f.rng.Intn(40)-20))
}

func (f *jsonFiller) string() string {
	switch n := f.rng.Intn(10); {
	case n < 5:
		return edgeStrings[f.rng.Intn(len(edgeStrings))]
	case n < 7 && !f.roundTrip:
		return invalidStrings[f.rng.Intn(len(invalidStrings))]
	default:
		b := make([]byte, f.rng.Intn(12))
		for i := range b {
			b[i] = byte(f.rng.Intn(128))
		}
		return string(b)
	}
}

// fill sets v, of the named field path, to a drawn value. A kind it does
// not know fails the test: a model field of a new kind must be taught to
// both the encoder and this filler.
func (f *jsonFiller) fill(t *testing.T, v reflect.Value, name string, omitempty bool) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			sf := v.Type().Field(i)
			if !sf.IsExported() {
				t.Fatalf("%s.%s is unexported: the JSON test cannot fill it", name, sf.Name)
			}
			f.fill(t, v.Field(i), name+"."+sf.Name, strings.Contains(sf.Tag.Get("json"), ",omitempty"))
		}
	case reflect.Pointer:
		if f.rng.Intn(4) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			f.fill(t, v.Elem(), name, false)
		}
	case reflect.Slice:
		n := f.rng.Intn(4)
		switch {
		case n == 0 && f.rng.Intn(2) == 0:
			return // nil
		case n == 0 && omitempty && f.roundTrip:
			n = 1
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			f.fill(t, v.Index(i), name, false)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			f.fill(t, v.Index(i), name, false)
		}
	case reflect.Map:
		n := f.rng.Intn(5)
		if n == 0 && f.rng.Intn(2) == 0 {
			return // nil
		}
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < n; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			f.fill(t, k, name+"[key]", false)
			e := reflect.New(v.Type().Elem()).Elem()
			f.fill(t, e, name, false)
			v.SetMapIndex(k, e)
		}
	case reflect.Int, reflect.Int64:
		switch f.rng.Intn(4) {
		case 0:
			v.SetInt(int64(f.rng.Intn(13) - 1)) // small keys: 10, 11 and 12 sort before 2
		case 1:
			v.SetInt([]int64{math.MinInt64, math.MaxInt64, -1, 0}[f.rng.Intn(4)])
		default:
			v.SetInt(f.rng.Int63() >> f.rng.Intn(63) * int64(1-2*f.rng.Intn(2)))
		}
	case reflect.Uint64:
		v.SetUint([]uint64{0, 1, math.MaxUint64, f.rng.Uint64() >> f.rng.Intn(64)}[f.rng.Intn(4)])
	case reflect.Float64:
		v.SetFloat(f.float())
	case reflect.Bool:
		v.SetBool(f.rng.Intn(2) == 0)
	case reflect.String:
		v.SetString(f.string())
	default:
		t.Fatalf("%s is a %s, which the JSON test cannot fill: teach the JSON encoder and this test about it", name, v.Kind())
	}
}

// TestJSONEncoderMatchesMarshalIndent fills every exported field of every
// type reachable from Report by reflection, with edge-case numbers and
// strings, nil and empty slices and maps, and present and absent
// sections, and requires the encoder to write exactly
// json.MarshalIndent's bytes plus a newline. A model field the encoder
// does not write fails here. For reports of values that decode back to
// themselves, DecodeReportJSON of the output must equal the report.
func TestJSONEncoderMatchesMarshalIndent(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		f := jsonFiller{rng: rand.New(rand.NewSource(seed)), roundTrip: seed%2 == 0}
		r := &Report{}
		f.fill(t, reflect.ValueOf(r).Elem(), "Report", false)
		r.SchemaVersion = ReportSchemaVersion
		want, err := marshalOracle(r)
		if err != nil {
			t.Fatalf("seed %d: MarshalIndent: %v", seed, err)
		}
		got, err := encodeJSON(r)
		if err != nil {
			t.Fatalf("seed %d: Encode: %v", seed, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: the encoder and MarshalIndent differ first at byte %d:\n%s", seed, firstDiff(got, want), diffContext(got, want))
		}
		if !f.roundTrip {
			continue
		}
		back, err := DecodeReportJSON(got)
		if err != nil {
			t.Fatalf("seed %d: decoding: %v", seed, err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("seed %d: the report does not round-trip:\n got %+v\nwant %+v", seed, back, r)
		}
	}
}

// TestJSONEncoderEdgeValues pins the cases the filler draws only by
// chance: a report with every section (seed statistics, a coordination
// section with workers and dead letters), nil and empty slices and maps
// side by side, map keys that sort as strings, and every escape.
func TestJSONEncoderEdgeValues(t *testing.T) {
	type costs = map[core.AtomicityType]float64
	full := &Report{
		SchemaVersion: ReportSchemaVersion,
		Scale:         1e-7,
		Table1:        []Table1Row{},
		Table2:        [][2]string{{"<L1>", "a & b"}, {"\u2028", "\x01\xff"}},
		Table4:        []Table4Row{{Sound: true}, {Counterexample: "x=1 /\\ y=0"}},
		Fig11a: []Fig11aEntry{
			{Benchmark: "keys", WriteBuffer: costs{2: 1, 10: 2, -1: 3, 1: 5e-324}, RaWa: costs{}},
			{Benchmark: "nil maps"},
		},
		Fig11b: []Fig11bEntry{{Benchmark: "big", Overhead: costs{3: 1.5e300, 1: math.Copysign(0, -1)},
			Cycles: map[core.AtomicityType]uint64{1: math.MaxUint64}}},
		Summary: Summary{Type2CostReductionMin: 1e21, Type3CostReductionMax: -1e-7},
		SeedStats: []SeedAggregate{{Benchmark: "bayes", Type: core.Type2, Seeds: []int64{1, 2}, MeanCycles: 1e21},
			{Benchmark: "nil seeds", Seeds: nil}, {Benchmark: "empty seeds", Seeds: []int64{}}},
		Coordination: &Coordination{Mode: "http", Workers: []CoordWorker{{Worker: "w<1>", Units: 3}},
			DeadLetters: []DeadUnit{{Unit: "u1", Attempts: 2, Reasons: []string{"a\tb", ""}}, {Unit: "u2", Trace: "t", Type: "type-1", Reasons: []string{}}}},
	}
	empty := &Report{Coordination: &Coordination{Workers: []CoordWorker{}, DeadLetters: []DeadUnit{}}}
	for name, r := range map[string]*Report{"full": full, "empty": empty, "zero": {}} {
		want, err := marshalOracle(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeJSON(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s report: the encoder and MarshalIndent differ first at byte %d:\n%s", name, firstDiff(got, want), diffContext(got, want))
		}
	}
}

// TestJSONEncoderRejectsNonFinite checks that NaN and both infinities
// fail the encoding wherever they sit, as they fail json.MarshalIndent,
// and that a failed encoding writes nothing.
func TestJSONEncoderRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, r := range []*Report{
			{Scale: v},
			{Fig11b: []Fig11bEntry{{Overhead: map[core.AtomicityType]float64{2: v}}}},
			{SeedStats: []SeedAggregate{{CI95Cycles: v}}},
		} {
			if _, err := json.MarshalIndent(r, "", "  "); err == nil {
				t.Fatalf("MarshalIndent accepted %v", v)
			}
			var buf bytes.Buffer
			err := JSONEncoder{}.Encode(&buf, r)
			if err == nil {
				t.Errorf("the encoder accepted %v", v)
			}
			if buf.Len() != 0 {
				t.Errorf("a failed encoding of %v wrote %d bytes", v, buf.Len())
			}
		}
	}
}

// FuzzEncodeReportJSON feeds arbitrary JSON to DecodeReportJSON: every
// report it accepts must encode to exactly json.MarshalIndent's bytes
// plus a newline. The corpus starts from the blessed JSON report golden.
func FuzzEncodeReportJSON(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "engine", "testdata", "report_json.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"schema_version":1,"fig11a":[{"write_buffer":{"10":1e-7,"2":-0,"-3":5e-324}}],"seed_stats":[],"coordination":{"mode":"<&>","dead_letters":[{"reasons":["\u2028\ud800"]}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeReportJSON(data)
		if err != nil {
			return
		}
		want, err := marshalOracle(r)
		if err != nil {
			t.Fatalf("MarshalIndent of a decoded report: %v", err)
		}
		got, err := encodeJSON(r)
		if err != nil {
			t.Fatalf("Encode of a decoded report: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("the encoder and MarshalIndent differ first at byte %d:\n%s", firstDiff(got, want), diffContext(got, want))
		}
	})
}

// firstDiff returns the index of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// diffContext shows both documents around their first difference.
func diffContext(got, want []byte) string {
	i := firstDiff(got, want)
	clip := func(b []byte) string {
		lo, hi := max(0, i-80), min(len(b), i+80)
		return strings.ToValidUTF8(string(b[lo:hi]), "?")
	}
	return "got:\n" + clip(got) + "\nwant:\n" + clip(want)
}
