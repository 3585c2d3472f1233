package replica

import (
	"errors"
	"fmt"
	"sort"
)

// The Globus replica catalog organizes logical files into named logical
// collections (e.g. one collection per experiment run); applications can
// locate and stage a whole collection at once. Collections are pure
// metadata: membership does not affect replica placement.

// ErrUnknownCollection is returned for operations on missing collections.
var ErrUnknownCollection = errors.New("replica: unknown collection")

// CreateCollection registers an empty logical collection.
func (c *Catalog) CreateCollection(name string) error {
	if name == "" {
		return errors.New("replica: empty collection name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.collections == nil {
		c.collections = make(map[string]map[string]bool)
	}
	if _, ok := c.collections[name]; ok {
		return fmt.Errorf("%w: collection %q", ErrDuplicate, name)
	}
	c.collections[name] = make(map[string]bool)
	return nil
}

// DeleteCollection removes a collection (its member files are untouched).
func (c *Catalog) DeleteCollection(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.collections[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownCollection, name)
	}
	delete(c.collections, name)
	return nil
}

// AddToCollection puts a logical file into a collection.
func (c *Catalog) AddToCollection(collection, logical string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	members, ok := c.collections[collection]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownCollection, collection)
	}
	if _, ok := c.ids[logical]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownLogical, logical)
	}
	if members[logical] {
		return fmt.Errorf("%w: %q in %q", ErrDuplicate, logical, collection)
	}
	members[logical] = true
	return nil
}

// RemoveFromCollection takes a logical file out of a collection.
func (c *Catalog) RemoveFromCollection(collection, logical string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	members, ok := c.collections[collection]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownCollection, collection)
	}
	if !members[logical] {
		return fmt.Errorf("%w: %q not in %q", ErrUnknownLogical, logical, collection)
	}
	delete(members, logical)
	return nil
}

// CollectionFiles lists a collection's members, sorted.
func (c *Catalog) CollectionFiles(collection string) ([]string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.collectionFilesLocked(collection)
}

func (c *Catalog) collectionFilesLocked(collection string) ([]string, error) {
	members, ok := c.collections[collection]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCollection, collection)
	}
	out := make([]string, 0, len(members))
	for m := range members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out, nil
}

// Collections lists all collection names, sorted.
func (c *Catalog) Collections() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.collectionsLocked()
}

func (c *Catalog) collectionsLocked() []string {
	out := make([]string, 0, len(c.collections))
	for n := range c.collections {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CollectionSize sums the member files' sizes — what staging the whole
// collection would transfer.
func (c *Catalog) CollectionSize(collection string) (int64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	members, err := c.collectionFilesLocked(collection)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, m := range members {
		f, err := c.fileLocked(m)
		if err != nil {
			return 0, err
		}
		total += f.size
	}
	return total, nil
}
