package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
)

// JSONEncoder renders a Report as one indented JSON document. The
// encoding is deterministic (map keys are sorted), versioned by the
// report's schema_version field, and round-trips: unmarshaling the output
// into a Report reproduces the original model, which is what lets
// dashboards and the tests consume it structurally.
//
// The encoder appends the report field by field, like the ASCII and CSV
// encoders, and writes exactly the bytes json.MarshalIndent(r, "", "  ")
// gives plus a newline: the same member order and names, the same
// omitempty and null rules, string escapes and number forms. It does so
// without reflection, which cost more than building the report itself.
// encoding/json stays the decoder (DecodeReportJSON) and the tests'
// oracle for these bytes; a field added to the model must be added here
// too, or those tests fail.
type JSONEncoder struct{}

// Encode writes the report as indented JSON followed by a newline. A NaN
// or infinite number fails the encoding, as in encoding/json, and then
// nothing is written.
func (JSONEncoder) Encode(w io.Writer, r *Report) error {
	e := jsonWriter{b: make([]byte, 0, 16<<10)}
	e.report(r)
	if e.err != nil {
		return e.err
	}
	e.b = append(e.b, '\n')
	_, err := w.Write(e.b)
	return err
}

// DecodeReportJSON parses a JSON-encoded report, rejecting schemas this
// build does not understand.
func DecodeReportJSON(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.SchemaVersion != ReportSchemaVersion {
		return nil, schemaError(r.SchemaVersion)
	}
	return &r, nil
}

// report appends the report object; its members follow the Report
// struct's field order.
func (w *jsonWriter) report(r *Report) {
	w.open('{')
	w.key("schema_version")
	w.int(int64(r.SchemaVersion))
	w.key("cores")
	w.int(int64(r.Cores))
	w.key("scale")
	w.float(r.Scale)
	w.key("seed")
	w.int(r.Seed)
	w.key("table1")
	jsonArray(w, r.Table1, func(w *jsonWriter, row *Table1Row) {
		w.open('{')
		w.key("atomicity")
		w.int(int64(row.Atomicity))
		w.key("dekker_reads")
		w.bool(row.DekkerReads)
		w.key("dekker_writes")
		w.bool(row.DekkerWrites)
		w.key("rmw_as_barrier")
		w.bool(row.RMWAsBarrier)
		w.key("cpp_read_replacement")
		w.bool(row.CppReadReplacement)
		w.key("cpp_write_replacement")
		w.bool(row.CppWriteReplacement)
		w.close('}')
	})
	w.key("table1_matches_paper")
	w.bool(r.Table1Matches)
	w.key("table2")
	jsonArray(w, r.Table2, func(w *jsonWriter, row *[2]string) {
		w.open('[')
		for _, s := range row {
			w.sep()
			w.string(s)
		}
		w.close(']')
	})
	w.key("table3")
	jsonArray(w, r.Table3, func(w *jsonWriter, row *Table3Row) {
		w.open('{')
		w.key("name")
		w.string(row.Name)
		w.key("suite")
		w.string(row.Suite)
		w.key("size")
		w.string(row.Size)
		w.key("rmws_per_1000")
		w.float(row.RMWsPer1000)
		w.key("paper_rmws_per_1000")
		w.float(row.PaperRMWsPer1000)
		w.key("unique_pct")
		w.float(row.UniquePct)
		w.key("paper_unique_pct")
		w.float(row.PaperUniquePct)
		w.key("drain_pct")
		w.float(row.DrainPct)
		w.key("broadcasts_per_100")
		w.float(row.BroadcastsPer100)
		w.close('}')
	})
	w.key("table4")
	jsonArray(w, r.Table4, func(w *jsonWriter, row *Table4Row) {
		w.open('{')
		w.key("mapping")
		w.int(int64(row.Mapping))
		w.key("atomicity")
		w.int(int64(row.Atomicity))
		w.key("sound")
		w.bool(row.Sound)
		if row.Counterexample != "" {
			w.key("counterexample")
			w.string(row.Counterexample)
		}
		w.close('}')
	})
	w.key("fig11a")
	jsonArray(w, r.Fig11a, func(w *jsonWriter, e *Fig11aEntry) {
		w.open('{')
		w.key("benchmark")
		w.string(e.Benchmark)
		w.key("write_buffer")
		jsonTypeMap(w, e.WriteBuffer, (*jsonWriter).float)
		w.key("ra_wa")
		jsonTypeMap(w, e.RaWa, (*jsonWriter).float)
		w.close('}')
	})
	w.key("fig11b")
	jsonArray(w, r.Fig11b, func(w *jsonWriter, e *Fig11bEntry) {
		w.open('{')
		w.key("benchmark")
		w.string(e.Benchmark)
		w.key("overhead")
		jsonTypeMap(w, e.Overhead, (*jsonWriter).float)
		w.key("cycles")
		jsonTypeMap(w, e.Cycles, (*jsonWriter).uint)
		w.close('}')
	})
	w.key("summary")
	s := &r.Summary
	w.open('{')
	w.key("type2_cost_reduction_min")
	w.float(s.Type2CostReductionMin)
	w.key("type2_cost_reduction_max")
	w.float(s.Type2CostReductionMax)
	w.key("type3_cost_reduction_min")
	w.float(s.Type3CostReductionMin)
	w.key("type3_cost_reduction_max")
	w.float(s.Type3CostReductionMax)
	w.key("max_speedup_type2")
	w.float(s.MaxSpeedupType2)
	w.key("max_speedup_type3")
	w.float(s.MaxSpeedupType3)
	w.key("avg_type1_drain_share")
	w.float(s.AvgType1DrainShare)
	w.close('}')
	if len(r.SeedStats) > 0 {
		w.key("seed_stats")
		jsonArray(w, r.SeedStats, func(w *jsonWriter, a *SeedAggregate) {
			w.open('{')
			w.key("benchmark")
			w.string(a.Benchmark)
			w.key("type")
			w.int(int64(a.Type))
			w.key("seeds")
			jsonArray(w, a.Seeds, func(w *jsonWriter, s *int64) { w.int(*s) })
			w.key("mean_rmw_cost")
			w.float(a.MeanRMWCost)
			w.key("ci95_rmw_cost")
			w.float(a.CI95RMWCost)
			w.key("mean_overhead_pct")
			w.float(a.MeanOverheadPct)
			w.key("ci95_overhead_pct")
			w.float(a.CI95OverheadPct)
			w.key("mean_cycles")
			w.float(a.MeanCycles)
			w.key("ci95_cycles")
			w.float(a.CI95Cycles)
			w.close('}')
		})
	}
	if c := r.Coordination; c != nil {
		w.key("coordination")
		w.coordination(c)
	}
	w.close('}')
}

// coordination appends the coordination section's object.
func (w *jsonWriter) coordination(c *Coordination) {
	w.open('{')
	w.key("mode")
	w.string(c.Mode)
	w.key("retries")
	w.int(int64(c.Retries))
	w.key("expired")
	w.int(int64(c.Expired))
	if len(c.DeadLetters) > 0 {
		w.key("dead_letters")
		jsonArray(w, c.DeadLetters, func(w *jsonWriter, u *DeadUnit) {
			w.open('{')
			w.key("unit")
			w.string(u.Unit)
			if u.Trace != "" {
				w.key("trace")
				w.string(u.Trace)
			}
			if u.Type != "" {
				w.key("type")
				w.string(u.Type)
			}
			w.key("attempts")
			w.int(int64(u.Attempts))
			if len(u.Reasons) > 0 {
				w.key("reasons")
				jsonArray(w, u.Reasons, func(w *jsonWriter, s *string) { w.string(*s) })
			}
			w.close('}')
		})
	}
	w.close('}')
}

// jsonWriter appends one indented JSON document. Every value a member or
// an element holds is appended right after key or sep; containers are
// bracketed by open and close. The first NaN or infinity sets err.
type jsonWriter struct {
	b     []byte
	depth int
	err   error
}

// open starts an object ('{') or an array ('[').
func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
}

// close ends the innermost object ('}') or array (']'); an empty one
// closes on its own line's opening bracket, as "{}" or "[]".
func (w *jsonWriter) close(c byte) {
	w.depth--
	if last := w.b[len(w.b)-1]; last != '{' && last != '[' {
		w.newline()
	}
	w.b = append(w.b, c)
}

// sep starts the next member or element of the innermost container: a
// comma after an earlier one (no value ends in a bracket that opens),
// then a new indented line.
func (w *jsonWriter) sep() {
	if last := w.b[len(w.b)-1]; last != '{' && last != '[' {
		w.b = append(w.b, ',')
	}
	w.newline()
}

// newline starts a new line indented two spaces per open container.
func (w *jsonWriter) newline() {
	w.b = append(w.b, '\n')
	for range w.depth {
		w.b = append(w.b, ' ', ' ')
	}
}

// key starts an object member; names are plain ASCII and need no escape.
func (w *jsonWriter) key(name string) {
	w.sep()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, '"', ':', ' ')
}

func (w *jsonWriter) null()         { w.b = append(w.b, "null"...) }
func (w *jsonWriter) bool(v bool)   { w.b = strconv.AppendBool(w.b, v) }
func (w *jsonWriter) int(v int64)   { w.b = strconv.AppendInt(w.b, v, 10) }
func (w *jsonWriter) uint(v uint64) { w.b = strconv.AppendUint(w.b, v, 10) }

// float appends a number as encoding/json does: the shortest form that
// round-trips, in exponent form below 1e-6 and from 1e21 on, with no
// leading zero in a negative exponent.
func (w *jsonWriter) float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, v, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// string appends s quoted as encoding/json quotes it with HTML escaping
// on: \" \\ \b \f \n \r \t, \u00XX for other control bytes and for < >
// &, \ufffd for each invalid UTF-8 byte, and \u2028 and \u2029.
func (w *jsonWriter) string(s string) {
	const hex = "0123456789abcdef"
	b := append(w.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.b = append(b, '"')
}

// jsonArray appends s as an array whose elements elem appends; a nil
// slice is null.
func jsonArray[T any](w *jsonWriter, s []T, elem func(*jsonWriter, *T)) {
	if s == nil {
		w.null()
		return
	}
	w.open('[')
	for i := range s {
		w.sep()
		elem(w, &s[i])
	}
	w.close(']')
}

// jsonTypeMap appends a map keyed by RMW type as an object whose values
// val appends; a nil map is null. encoding/json writes an integer key as
// its decimal string and sorts the members by those strings ("10" before
// "2"), and so does this.
func jsonTypeMap[V any](w *jsonWriter, m map[core.AtomicityType]V, val func(*jsonWriter, V)) {
	if m == nil {
		w.null()
		return
	}
	var buf [3]core.AtomicityType
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b core.AtomicityType) int {
		var x, y [20]byte
		return bytes.Compare(strconv.AppendInt(x[:0], int64(a), 10), strconv.AppendInt(y[:0], int64(b), 10))
	})
	w.open('{')
	for _, k := range keys {
		w.sep()
		w.b = append(w.b, '"')
		w.b = strconv.AppendInt(w.b, int64(k), 10)
		w.b = append(w.b, '"', ':', ' ')
		val(w, m[k])
	}
	w.close('}')
}
