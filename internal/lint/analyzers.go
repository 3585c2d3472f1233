package lint

// All returns the full gridlint analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Wallclock,
		Determinism,
		ErrcheckLite,
	}
}
