package metrics

import (
	"fmt"
	"strings"
)

// Table renders aligned plain-text tables in the style of the paper's
// Table 1. Columns are sized to their widest cell.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row. Cells beyond the header count are dropped; missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := 0; i < len(t.headers) && i < len(cells); i++ {
		row[i] = cells[i]
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	total += 2 * (len(widths) - 1)
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a named sequence of (x, y) points; the harness prints one
// Series per line of a paper figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// AddPoint appends a point to the series.
func (s *Series) AddPoint(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// RenderSeries prints a figure: one column per x value (the union of all
// series' x values in ascending order is not computed — series must share
// the same xs, as every figure in the paper does).
func RenderSeries(title, xLabel, yLabel string, series []Series) (string, error) {
	if len(series) == 0 {
		return "", ErrEmpty
	}
	n := len(series[0].X)
	for _, s := range series {
		if len(s.X) != n || len(s.Y) != n {
			return "", fmt.Errorf("metrics: series %q has %d/%d points, want %d", s.Name, len(s.X), len(s.Y), n)
		}
		for i := range s.X {
			if s.X[i] != series[0].X[i] {
				return "", fmt.Errorf("metrics: series %q x[%d]=%v differs from %v", s.Name, i, s.X[i], series[0].X[i])
			}
		}
	}
	headers := []string{fmt.Sprintf("%s \\ %s", yLabel, xLabel)}
	for _, x := range series[0].X {
		headers = append(headers, trimFloat(x))
	}
	t := NewTable(title, headers...)
	for _, s := range series {
		cells := []string{s.Name}
		for _, y := range s.Y {
			cells = append(cells, fmt.Sprintf("%.2f", y))
		}
		t.AddRow(cells...)
	}
	return t.String(), nil
}

func trimFloat(x float64) string {
	if x == float64(int64(x)) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%g", x)
}
