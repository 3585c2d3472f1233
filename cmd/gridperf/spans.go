package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer: which call, when, under which
// enclosing span, and on behalf of which op (client request, catalog
// call, suite seed). Times are nanoseconds since the recorder started.
type span struct {
	name   int32 // index into recorder.names
	parent int32 // index into recorder.spans, -1 for a root
	op     int32 // op id shared by every span of one request, -1 for none
	start  int64
	end    int64
}

// recorder keeps spans in memory and writes them out when the run ends.
// It is driven from one goroutine; the open-span stack supplies each new
// span's parent. A nil *recorder records nothing, so the same driver code
// runs traced and untraced.
type recorder struct {
	t0    time.Time
	names []string
	index map[string]int32
	spans []span
	open  []int32
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), index: make(map[string]int32)}
}

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string, op int) int32 {
	if r == nil {
		return -1
	}
	n, ok := r.index[name]
	if !ok {
		n = int32(len(r.names))
		r.names = append(r.names, name)
		r.index[name] = n
	}
	parent := int32(-1)
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{name: n, parent: parent, op: int32(op), start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned. Spans close innermost first.
func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].end = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// spanTotals aggregates every span of one name.
type spanTotals struct {
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children may overlap each other and
// may stick out of the parent; covered time is the union of the child
// intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].start < spans[order[b]].start })
	covered := make([]int64, len(spans))
	// reach[p] is how far into parent p its children seen so far extend.
	reach := make([]int64, len(spans))
	for i := range reach {
		reach[i] = spans[i].start
	}
	for _, i := range order {
		p := spans[i].parent
		if p < 0 {
			continue
		}
		from, to := spans[i].start, spans[i].end
		if from < reach[p] {
			from = reach[p]
		}
		if to > spans[p].end {
			to = spans[p].end
		}
		if to > from {
			covered[p] += to - from
			reach[p] = to
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered[i]
	}
	return self
}

// totals sums count, duration and self time per span name.
func (r *recorder) totals() map[string]spanTotals {
	out := make(map[string]spanTotals, len(r.names))
	self := selfTimes(r.spans)
	for i, s := range r.spans {
		t := out[r.names[s.name]]
		t.Count++
		t.Total += float64(s.end-s.start) / 1e9
		t.Self += float64(self[i]) / 1e9
		out[r.names[s.name]] = t
	}
	return out
}

// durations returns every span duration of one name, in seconds.
func (r *recorder) durations(name string) []float64 {
	n, ok := r.index[name]
	if !ok {
		return nil
	}
	var out []float64
	for _, s := range r.spans {
		if s.name == n {
			out = append(out, float64(s.end-s.start)/1e9)
		}
	}
	return out
}

// traceFileSpans caps how many spans a trace file holds verbatim; the
// per-name totals always cover every span recorded.
const traceFileSpans = 200_000

// traceFile is the on-disk form of one traced run. Spans are rows of
// [name index, parent, op, start ns, end ns].
type traceFile struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Recorded  int                   `json:"spans_recorded"`
	Truncated bool                  `json:"spans_truncated"`
	Totals    map[string]spanTotals `json:"totals"`
	Layers    map[string]float64    `json:"layers"`
	Names     []string              `json:"names"`
	Spans     [][5]int64            `json:"spans"`
}

func (r *recorder) write(path, workload string, seed int64, totals map[string]spanTotals, layers map[string]float64) error {
	tf := traceFile{
		Workload: workload,
		Seed:     seed,
		Recorded: len(r.spans),
		Totals:   totals,
		Layers:   layers,
		Names:    r.names,
	}
	keep := r.spans
	if len(keep) > traceFileSpans {
		keep, tf.Truncated = keep[:traceFileSpans], true
	}
	tf.Spans = make([][5]int64, len(keep))
	for i, s := range keep {
		tf.Spans[i] = [5]int64{int64(s.name), int64(s.parent), int64(s.op), s.start, s.end}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
