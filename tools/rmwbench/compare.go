package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"slices"
	"text/tabwriter"
)

// resultFile is what -out writes: for every workload, each metric
// summarized across the runs, and the runs' full records. A later -out to
// the same file adds its runs, so the runs of one side of an A/B
// comparison can be made alternately with the other side's.
type resultFile struct {
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Traced    bool             `json:"traced"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string `json:"name"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Metrics and Named summarize each metric's per-run values: median,
	// quartiles and the number of runs. Samples is the number of samples
	// behind those values, summed over the runs.
	Metrics map[string]metricResult `json:"metrics"`
	Named   map[string]metricResult `json:"named,omitempty"`
	Records []*record               `json:"records"`
}

type metricResult struct {
	Unit    string    `json:"unit"`
	Values  []float64 `json:"values"`
	Samples int       `json:"samples"`
	summary
}

// summarizeRuns folds one workload's run records into its result.
func summarizeRuns(name string, recs []*record) workloadResult {
	w := workloadResult{Name: name, Correct: len(recs) > 0, Metrics: map[string]metricResult{}, Named: map[string]metricResult{}, Records: recs}
	fold := func(into map[string]metricResult, from map[string]sampled) {
		for n, s := range from {
			m := into[n]
			m.Unit = s.Unit
			m.Values = append(m.Values, s.Value)
			m.Samples += s.N
			into[n] = m
		}
	}
	for _, r := range recs {
		w.Correct = w.Correct && r.Correct
		w.Attempted += r.Attempted
		w.Failed += r.Failed
		fold(w.Metrics, r.Metrics)
		fold(w.Named, r.Named)
	}
	for _, ms := range []map[string]metricResult{w.Metrics, w.Named} {
		for n, m := range ms {
			m.summary = summarize(m.Values)
			ms[n] = m
		}
	}
	return w
}

func readResultFile(path string) (*resultFile, error) {
	var f resultFile
	if err := readJSON(path, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

// addRuns writes res to path, first adding the runs already in the file
// there, if any; both must come from runs of the same seed, length and
// mode.
func addRuns(path string, res *resultFile) error {
	old, err := readResultFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return writeJSON(path, res)
	case err != nil:
		return err
	case old.Seed != res.Seed || old.Seconds != res.Seconds || old.Traced != res.Traced:
		return fmt.Errorf("%s holds runs of seed %d, %d s, traced %v; these are seed %d, %d s, traced %v",
			path, old.Seed, old.Seconds, old.Traced, res.Seed, res.Seconds, res.Traced)
	}
	for _, w := range res.Workloads {
		i := slices.IndexFunc(old.Workloads, func(o workloadResult) bool { return o.Name == w.Name })
		if i < 0 {
			old.Workloads = append(old.Workloads, w)
			continue
		}
		old.Workloads[i] = summarizeRuns(w.Name, append(old.Workloads[i].Records, w.Records...))
	}
	return writeJSON(path, old)
}

// verdict judges metric m from baseline a to change b under the metric's
// bound: "unresolved" when either side's quartile spread exceeds the
// bound (unless every run of b is better than every run of a), else
// "worse" or "better" when the medians differ by more than the bound in
// that direction, else "same".
func verdict(m metricSpec, a, b metricResult) string {
	// worse is the relative change from x to y, positive when y is worse.
	worse := func(x, y float64) float64 {
		d := (y - x) / math.Abs(x)
		if m.Better == "higher" {
			d = -d
		}
		return d
	}
	if a.spread() > m.Bound || b.spread() > m.Bound {
		for _, x := range a.Values {
			for _, y := range b.Values {
				if worse(x, y) >= 0 {
					return "unresolved"
				}
			}
		}
		return "better"
	}
	switch d := worse(a.Median, b.Median); {
	case d > m.Bound:
		return "worse"
	case d < -m.Bound:
		return "better"
	}
	return "same"
}

// compareFiles prints, for each workload, one row per end-to-end metric
// of the spec, one per named metric of the workload (judged under the
// bound and direction of the end-to-end metric it refines) and one for
// the error fraction, which may not rise at all. It reports whether
// every verdict is "same" or "better".
func compareFiles(w io.Writer, spec *benchSpec, a, b *resultFile) bool {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tchange\tbound\tverdict")
	ok := true
	row := func(wl string, m metricSpec, ma, mb metricResult, okA, okB bool) {
		if !okA || !okB {
			fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t-\t%g\tunresolved\n", wl, m.Name, m.Unit, m.Bound)
			ok = false
			return
		}
		v := verdict(m, ma, mb)
		ok = ok && (v == "same" || v == "better")
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%g\t%s\n", wl, m.Name, m.Unit,
			describe(ma), describe(mb), 100*(mb.Median-ma.Median)/math.Abs(ma.Median), m.Bound, v)
	}
	for _, wa := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(w workloadResult) bool { return w.Name == wa.Name })
		if i < 0 {
			fmt.Fprintf(tw, "%s\t-\t-\t-\tmissing\t-\t-\tunresolved\n", wa.Name)
			ok = false
			continue
		}
		wb := b.Workloads[i]
		for _, m := range spec.EndToEnd {
			ma, okA := wa.Metrics[m.Name]
			mb, okB := wb.Metrics[m.Name]
			row(wa.Name, m, ma, mb, okA, okB)
		}
		wl, _ := findWorkload(wa.Name)
		for _, n := range wl.named {
			j := slices.IndexFunc(spec.EndToEnd, func(m metricSpec) bool { return m.Name == n.refines })
			if j < 0 {
				continue
			}
			m := metricSpec{Name: n.name, Unit: n.unit, Better: spec.EndToEnd[j].Better, Bound: spec.EndToEnd[j].Bound}
			ma, okA := wa.Named[n.name]
			mb, okB := wb.Named[n.name]
			row(wa.Name, m, ma, mb, okA, okB)
		}
		fa := float64(wa.Failed) / math.Max(float64(wa.Attempted), 1)
		fb := float64(wb.Failed) / math.Max(float64(wb.Attempted), 1)
		v := "same"
		switch {
		case fb > fa:
			v, ok = "worse", false
		case fb < fa:
			v = "better"
		}
		fmt.Fprintf(tw, "%s\terror_frac\t\t%.4g\t%.4g\t\t0\t%s\n", wa.Name, fa, fb, v)
	}
	tw.Flush()
	return ok
}

func describe(m metricResult) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", m.Median, m.Q1, m.Q3, m.N)
}
