package lint

import "go/types"

// Fact is one typed statement an analyzer exports about an exported
// object of a package — e.g. "this function returns wall-clock time" or
// "this function derives a seed from its parameters". Facts cross
// package boundaries: they are recorded when the defining package is
// analyzed and consulted when dependent packages are, so analyzers can
// catch invariant violations laundered through helper functions.
type Fact struct {
	// Pkg is the import path of the package defining the object, exactly
	// as the object's types.Package reports it.
	Pkg string `json:"pkg"`
	// Object is the exported object's name ("DeriveSeed").
	Object string `json:"object"`
	// Analyzer is the exporting analyzer; an analyzer only sees its own
	// facts, so two analyzers can use the same fact name independently.
	Analyzer string `json:"analyzer"`
	// Name is the fact kind ("returnsWallClock", "seedDeriver", ...).
	Name string `json:"name"`
	// Detail is optional free text carried into diagnostics.
	Detail string `json:"detail,omitempty"`
}

type factKey struct {
	pkg, object, analyzer, name string
}

// FactStore accumulates facts across one analysis run. It is shared by
// every package the driver analyzes, in dependency order, so facts about
// a package are visible to its importers. The zero value is not usable;
// call NewFactStore.
type FactStore struct {
	facts map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: make(map[factKey]Fact)}
}

// Add records a fact, replacing any identical-key fact.
func (s *FactStore) Add(f Fact) {
	s.facts[factKey{f.Pkg, f.Object, f.Analyzer, f.Name}] = f
}

// Lookup returns the fact exported by analyzer about (pkg, object) under
// name, if any.
func (s *FactStore) Lookup(analyzer, pkg, object, name string) (Fact, bool) {
	f, ok := s.facts[factKey{pkg, object, analyzer, name}]
	return f, ok
}

// ExportFact records a fact about obj under the pass's analyzer. Only
// exported package-level objects are recorded — facts describe a
// package's public surface; unexported helpers are handled by each
// analyzer's intra-package scan.
func (p *Pass) ExportFact(obj types.Object, name, detail string) {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
		return
	}
	p.facts.Add(Fact{
		Pkg:      obj.Pkg().Path(),
		Object:   obj.Name(),
		Analyzer: p.Analyzer.Name,
		Name:     name,
		Detail:   detail,
	})
}

// HasFact reports whether the pass's analyzer exported a fact of the
// given name about obj — in this package (during the current Run's
// fixpoint) or in any previously analyzed package.
func (p *Pass) HasFact(obj types.Object, name string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	_, ok := p.facts.Lookup(p.Analyzer.Name, obj.Pkg().Path(), obj.Name(), name)
	return ok
}

// FactDetail returns the detail text of the named fact about obj, or "".
func (p *Pass) FactDetail(obj types.Object, name string) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	f, _ := p.facts.Lookup(p.Analyzer.Name, obj.Pkg().Path(), obj.Name(), name)
	return f.Detail
}
