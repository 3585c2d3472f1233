package core

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
