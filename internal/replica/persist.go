package replica

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// catalogDoc is the on-disk representation of a catalog — the analogue of
// the LDAP backing store the Globus replica catalog used.
type catalogDoc struct {
	Files       []LogicalFile         `json:"files"`
	Locations   map[string][]Location `json:"locations"`
	Collections map[string][]string   `json:"collections"`
}

// Save serializes the whole catalog (files, locations, collections) as a
// JSON document.
func (c *Catalog) Save(w io.Writer) error {
	c.mu.RLock()
	doc := catalogDoc{
		Locations:   make(map[string][]Location, len(c.ids)),
		Collections: make(map[string][]string, len(c.collections)),
	}
	for _, name := range c.logicalNamesLocked() {
		f, err := c.logicalLocked(name)
		if err != nil {
			c.mu.RUnlock()
			return err
		}
		doc.Files = append(doc.Files, f)
		if locs, err := c.appendLocationsLocked(nil, name); err == nil {
			doc.Locations[name] = locs
		}
	}
	for _, coll := range c.collectionsLocked() {
		members, err := c.collectionFilesLocked(coll)
		if err != nil {
			c.mu.RUnlock()
			return err
		}
		doc.Collections[coll] = members
	}
	c.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("replica: saving catalog: %w", err)
	}
	return nil
}

// LoadCatalog reads a catalog previously written by Save.
func LoadCatalog(r io.Reader) (*Catalog, error) {
	var doc catalogDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("replica: loading catalog: %w", err)
	}
	c := NewCatalog()
	for _, f := range doc.Files {
		if err := c.CreateLogical(f); err != nil {
			return nil, err
		}
	}
	for name, locs := range doc.Locations {
		for _, l := range locs {
			if err := c.Register(name, l); err != nil {
				return nil, err
			}
		}
	}
	colls := make([]string, 0, len(doc.Collections))
	for coll := range doc.Collections {
		colls = append(colls, coll)
	}
	sort.Strings(colls)
	for _, coll := range colls {
		if err := c.CreateCollection(coll); err != nil {
			return nil, err
		}
		for _, m := range doc.Collections[coll] {
			if err := c.AddToCollection(coll, m); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}
