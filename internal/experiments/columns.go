package experiments

import (
	"fmt"

	"github.com/hpclab/datagrid/internal/metrics"
)

// column is one field of an artifact's rows, declared once for every
// output that shows it: the text table, the CSV records and the suite
// metrics. Formats are fmt verbs applied to value's result.
type column[R any] struct {
	// head and format show the column in the text table; a column with
	// no head is left out of it.
	head, format string
	// name and csvFormat show the column in the CSV, which has every
	// column; name also ends the column's metric name.
	name, csvFormat string
	// metric makes the column a suite metric named key(row) + "/" + name.
	// Its value must be an int, a uint64 or a float64.
	metric bool
	value  func(R) any
}

// columns is an artifact's column list over its row type R; key names a
// row in the metrics.
type columns[R any] struct {
	key  func(R) string
	cols []column[R]
}

// table renders the rows as a text table of the columns that have a head.
func (c columns[R]) table(title string, rows []R) string {
	var heads []string
	for _, col := range c.cols {
		if col.head != "" {
			heads = append(heads, col.head)
		}
	}
	tb := metrics.NewTable(title, heads...)
	for _, r := range rows {
		cells := make([]string, 0, len(heads))
		for _, col := range c.cols {
			if col.head != "" {
				cells = append(cells, fmt.Sprintf(col.format, col.value(r)))
			}
		}
		tb.AddRow(cells...)
	}
	return tb.String()
}

// records renders the rows as CSV records, the header record first.
func (c columns[R]) records(rows []R) [][]string {
	out := make([][]string, 0, 1+len(rows))
	head := make([]string, len(c.cols))
	for i, col := range c.cols {
		head[i] = col.name
	}
	out = append(out, head)
	for _, r := range rows {
		rec := make([]string, len(c.cols))
		for i, col := range c.cols {
			rec[i] = fmt.Sprintf(col.csvFormat, col.value(r))
		}
		out = append(out, rec)
	}
	return out
}

// metrics lists each row's metric columns, row by row in column order.
func (c columns[R]) metrics(rows []R) []Metric {
	var ms []Metric
	for _, r := range rows {
		key := c.key(r)
		for _, col := range c.cols {
			if !col.metric {
				continue
			}
			var v float64
			switch x := col.value(r).(type) {
			case int:
				v = float64(x)
			case uint64:
				v = float64(x)
			default:
				v = x.(float64)
			}
			ms = append(ms, Metric{key + "/" + col.name, v})
		}
	}
	return ms
}
