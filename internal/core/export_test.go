package core

import (
	"fmt"
	"strings"
)

// SelectBest returns the server's selector's choice among the view-ranked
// candidates of the logical file: what SelectionServer.SelectBest answers
// from a view the test pinned itself.
func (v *SnapshotView) SelectBest(logical string) (Candidate, error) {
	cands, err := v.Rank(logical)
	if err != nil {
		return Candidate{}, err
	}
	return pick(v.srv.selector, cands)
}

// DiffCandidates compares two rankings by value — each candidate's
// location, score and the report it points at; == on candidates would
// compare the reports' addresses — and describes the first difference
// with the reports' values, or returns "".
func DiffCandidates(got, want []Candidate) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d candidates, want %d:\n got %s\nwant %s", len(got), len(want), formatCandidates(got), formatCandidates(want))
	}
	for i, g := range got {
		w := want[i]
		sameReport := g.Report == w.Report || g.Report != nil && w.Report != nil && *g.Report == *w.Report
		if g.Location != w.Location || g.Score != w.Score || !sameReport {
			return fmt.Sprintf("candidate %d:\n got %s\nwant %s", i, formatCandidates(got[i:i+1]), formatCandidates(want[i:i+1]))
		}
	}
	return ""
}

func formatCandidates(cands []Candidate) string {
	var b strings.Builder
	for _, c := range cands {
		fmt.Fprintf(&b, "{%v %v ", c.Location, c.Score)
		if c.Report == nil {
			b.WriteString("<nil>} ")
		} else {
			fmt.Fprintf(&b, "%+v} ", *c.Report)
		}
	}
	return strings.TrimSuffix(b.String(), " ")
}
