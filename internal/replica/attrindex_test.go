package replica

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refFind is the pre-index reference: a full catalog scan. The inverted
// index must return exactly this, including the empty-value semantics
// (want["k"] == "" matches files lacking k entirely).
func refFind(c *Catalog, want map[string]string) []string {
	var out []string
	for _, name := range c.LogicalNames() {
		f, err := c.Logical(name)
		if err != nil {
			continue
		}
		ok := true
		for k, v := range want {
			if f.Attributes[k] != v {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, name)
		}
	}
	if out == nil {
		return nil
	}
	return out
}

func TestFindByAttributesMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewCatalog()
	keys := []string{"exp", "type", "fmt", "site"}
	vals := []string{"cms", "atlas", "bio", "fasta", "dat", ""}
	for i := 0; i < 200; i++ {
		attrs := map[string]string{}
		for _, k := range keys {
			if rng.Intn(3) > 0 { // ~1/3 of files lack each key
				attrs[k] = vals[rng.Intn(len(vals))]
			}
		}
		if err := c.CreateLogical(LogicalFile{
			Name: fmt.Sprintf("f%03d", i), SizeBytes: 1, Attributes: attrs,
		}); err != nil {
			t.Fatal(err)
		}
	}
	queries := []map[string]string{
		nil,
		{},
		{"exp": "cms"},
		{"exp": "cms", "type": "bio"},
		{"exp": "cms", "type": "bio", "fmt": "fasta"},
		{"exp": ""}, // matches absent key or explicit empty value
		{"exp": "", "type": "bio"},
		{"exp": "nope"},
		{"bogus": "x"},
		{"bogus": ""},
	}
	for _, q := range queries {
		got := c.FindByAttributes(q)
		want := refFind(c, q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("FindByAttributes(%v) = %v, reference scan = %v", q, got, want)
		}
	}
	// Random queries, including after random deletions, to shake the
	// index's delete path.
	names := c.LogicalNames()
	for i := 0; i < 50; i++ {
		if i == 25 {
			for j := 0; j < 60; j++ {
				// Random picks can repeat; a second delete of the same
				// name correctly reports ErrUnknownLogical.
				_ = c.DeleteLogical(names[rng.Intn(len(names))])
			}
		}
		q := map[string]string{}
		for _, k := range keys {
			if rng.Intn(2) == 0 {
				q[k] = vals[rng.Intn(len(vals))]
			}
		}
		got, want := c.FindByAttributes(q), refFind(c, q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: FindByAttributes(%v) = %v, reference = %v", i, q, got, want)
		}
	}
}

// TestFindByAttributesCallerMutation pins the copy discipline the index
// depends on: mutating the caller's map after CreateLogical, or the map
// returned by Logical, must not change query results.
func TestFindByAttributesCallerMutation(t *testing.T) {
	c := NewCatalog()
	attrs := map[string]string{"type": "bio"}
	if err := c.CreateLogical(LogicalFile{Name: "nr", SizeBytes: 1, Attributes: attrs}); err != nil {
		t.Fatal(err)
	}
	// Mutate the map the caller handed in.
	attrs["type"] = "physics"
	attrs["extra"] = "x"
	if got := c.FindByAttributes(map[string]string{"type": "bio"}); len(got) != 1 || got[0] != "nr" {
		t.Errorf("after caller-map mutation, find type=bio = %v, want [nr]", got)
	}
	if got := c.FindByAttributes(map[string]string{"type": "physics"}); len(got) != 0 {
		t.Errorf("caller-map mutation leaked into the index: find type=physics = %v", got)
	}
	// Mutate the copy Logical returns.
	f, err := c.Logical("nr")
	if err != nil {
		t.Fatal(err)
	}
	f.Attributes["type"] = "physics"
	if got := c.FindByAttributes(map[string]string{"type": "bio"}); len(got) != 1 || got[0] != "nr" {
		t.Errorf("after Logical-copy mutation, find type=bio = %v, want [nr]", got)
	}
}

// TestFindByAttributesDeleteCleans verifies DeleteLogical removes every
// index entry, including shared-value sets, and that re-creation with new
// attributes indexes cleanly.
func TestFindByAttributesDeleteCleans(t *testing.T) {
	c := NewCatalog()
	for _, n := range []string{"a", "b"} {
		if err := c.CreateLogical(LogicalFile{
			Name: n, SizeBytes: 1, Attributes: map[string]string{"exp": "cms"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DeleteLogical("a"); err != nil {
		t.Fatal(err)
	}
	if got := c.FindByAttributes(map[string]string{"exp": "cms"}); len(got) != 1 || got[0] != "b" {
		t.Errorf("after delete, find exp=cms = %v, want [b]", got)
	}
	if err := c.CreateLogical(LogicalFile{
		Name: "a", SizeBytes: 1, Attributes: map[string]string{"exp": "atlas"},
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.FindByAttributes(map[string]string{"exp": "atlas"}); len(got) != 1 || got[0] != "a" {
		t.Errorf("after re-create, find exp=atlas = %v, want [a]", got)
	}
	if got := c.FindByAttributes(map[string]string{"exp": "cms"}); len(got) != 1 || got[0] != "b" {
		t.Errorf("after re-create, find exp=cms = %v, want [b]", got)
	}
	if n := len(c.attrIndex[attr{"exp", "cms"}]); n != 1 {
		t.Errorf("index set for exp=cms has %d entries, want 1", n)
	}
	if err := c.DeleteLogical("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteLogical("b"); err != nil {
		t.Fatal(err)
	}
	if len(c.attrIndex) != 0 {
		t.Errorf("index not empty after deleting all files: %v", c.attrIndex)
	}
}
