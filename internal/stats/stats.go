// Package stats provides the small reporting utilities shared by the
// experiment harness and the command-line tools: fixed-width tables,
// labelled series for the figure-style results, and percentage helpers.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple fixed-width text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable returns an empty table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one named sequence of (label, value) points, used for the
// figure-style results (e.g. per-benchmark RMW cost for one RMW type).
type Series struct {
	Name   string
	Labels []string
	Values []float64
}

// Add appends a point to the series.
func (s *Series) Add(label string, value float64) {
	s.Labels = append(s.Labels, label)
	s.Values = append(s.Values, value)
}

// Chart renders a set of series that share labels as a grouped horizontal
// bar chart in text, one block per label. Values are scaled so the longest
// bar is width characters. A NaN value is a missing point: it prints as
// "-" with no bar.
func Chart(title string, width int, series ...Series) string {
	if width <= 0 {
		width = 50
	}
	var max float64
	for _, s := range series {
		for _, v := range s.Values {
			if v > max {
				max = v
			}
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteString("\n")
	}
	if len(series) == 0 || len(series[0].Labels) == 0 {
		b.WriteString("(no data)\n")
		return b.String()
	}
	nameWidth := 0
	for _, s := range series {
		if len(s.Name) > nameWidth {
			nameWidth = len(s.Name)
		}
	}
	for i, label := range series[0].Labels {
		fmt.Fprintf(&b, "%s\n", label)
		for _, s := range series {
			if i >= len(s.Values) {
				continue
			}
			v := s.Values[i]
			if math.IsNaN(v) {
				fmt.Fprintf(&b, "  %-*s %8s\n", nameWidth, s.Name, "-")
				continue
			}
			bar := 0
			if max > 0 {
				bar = int(v / max * float64(width))
			}
			fmt.Fprintf(&b, "  %-*s %8.2f %s\n", nameWidth, s.Name, v, strings.Repeat("#", bar))
		}
	}
	return b.String()
}

// PercentReduction returns how much smaller next is than base, in percent.
// A zero base yields zero.
func PercentReduction(base, next float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - next) / base
}

// Percent formats a float as a percentage with one decimal.
func Percent(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// F1 formats a float with one decimal.
func F1(v float64) string { return fmt.Sprintf("%.1f", v) }

// F2 formats a float with two decimals.
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }

// Mark renders a boolean as the check/cross marks used by the paper's
// Table 1.
func Mark(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}

// Mean returns the arithmetic mean of the samples (zero for none).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (Bessel-corrected); it is
// zero for fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// tCrit95 holds the two-sided 95% Student-t critical values for 1..30
// degrees of freedom; larger samples use the normal approximation.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// MeanCI95 returns the sample mean and the half-width of its two-sided
// 95% confidence interval (Student t for up to 30 degrees of freedom,
// normal approximation beyond). Fewer than two samples have a zero
// half-width: a single measurement carries no spread information.
func MeanCI95(xs []float64) (mean, half float64) {
	mean = Mean(xs)
	n := len(xs)
	if n < 2 {
		return mean, 0
	}
	t := 1.960
	if df := n - 1; df <= len(tCrit95) {
		t = tCrit95[df-1]
	}
	return mean, t * StdDev(xs) / math.Sqrt(float64(n))
}
