package replica

import (
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"
)

func TestCatalogLogicalLifecycle(t *testing.T) {
	c := NewCatalog()
	f := LogicalFile{Name: "file-a", SizeBytes: 1 << 30, Attributes: map[string]string{"type": "bio-db"}}
	if err := c.CreateLogical(f); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateLogical(f); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate create err = %v", err)
	}
	got, err := c.Logical("file-a")
	if err != nil || got.SizeBytes != 1<<30 || got.Attributes["type"] != "bio-db" {
		t.Fatalf("Logical = %+v, %v", got, err)
	}
	// Returned record is a copy: mutating it must not affect the catalog.
	got.Attributes["type"] = "mutated"
	again, _ := c.Logical("file-a")
	if again.Attributes["type"] != "bio-db" {
		t.Fatal("catalog leaked internal map")
	}
	if names := c.LogicalNames(); len(names) != 1 || names[0] != "file-a" {
		t.Fatalf("LogicalNames = %v", names)
	}
	if _, err := c.Logical("file-b"); !errors.Is(err, ErrUnknownLogical) {
		t.Fatalf("unknown logical err = %v", err)
	}
}

func TestCatalogValidation(t *testing.T) {
	c := NewCatalog()
	if err := c.CreateLogical(LogicalFile{SizeBytes: 1}); err == nil {
		t.Fatal("empty name should be rejected")
	}
	if err := c.CreateLogical(LogicalFile{Name: "f"}); err == nil {
		t.Fatal("zero size should be rejected")
	}
	if err := c.Register("ghost", Location{Host: "h", Path: "/p"}); !errors.Is(err, ErrUnknownLogical) {
		t.Fatalf("register unknown logical err = %v", err)
	}
}

func TestCatalogLocations(t *testing.T) {
	c := NewCatalog()
	if err := c.CreateLogical(LogicalFile{Name: "file-a", SizeBytes: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Locations("file-a"); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("no replicas err = %v", err)
	}
	for _, loc := range []Location{
		{Host: "alpha4", Path: "/data/file-a"},
		{Host: "hit0", Path: "/data/file-a"},
		{Host: "lz02", Path: "/data/file-a"},
	} {
		if err := c.Register("file-a", loc); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Register("file-a", Location{Host: "hit0", Path: "/data/file-a"}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate location err = %v", err)
	}
	locs, err := c.Locations("file-a")
	if err != nil || len(locs) != 3 {
		t.Fatalf("Locations = %v, %v", locs, err)
	}
	hosts, err := c.HostsWith("file-a")
	if err != nil || len(hosts) != 3 || hosts[0] != "alpha4" {
		t.Fatalf("HostsWith = %v, %v", hosts, err)
	}
	if err := c.Unregister("file-a", "hit0", "/data/file-a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unregister("file-a", "hit0", "/data/file-a"); !errors.Is(err, ErrUnknownReplica) {
		t.Fatalf("double unregister err = %v", err)
	}
	locs, _ = c.Locations("file-a")
	if len(locs) != 2 {
		t.Fatalf("after unregister: %v", locs)
	}
	if err := c.Register("file-a", Location{Host: "h", Path: ""}); err == nil {
		t.Fatal("empty path should be rejected")
	}
}

// TestAttributesCallerMutation pins the copy discipline: mutating the
// caller's map after CreateLogical, or the map returned by Logical, must
// not change what the catalog holds.
func TestAttributesCallerMutation(t *testing.T) {
	c := NewCatalog()
	attrs := map[string]string{"type": "bio"}
	if err := c.CreateLogical(LogicalFile{Name: "nr", SizeBytes: 1, Attributes: attrs}); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"type": "bio"}
	// Mutate the map the caller handed in.
	attrs["type"] = "physics"
	attrs["extra"] = "x"
	f, err := c.Logical("nr")
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(f.Attributes, want) {
		t.Errorf("after caller-map mutation, Logical attributes = %v, want %v", f.Attributes, want)
	}
	// Mutate the copy Logical returns.
	f.Attributes["type"] = "physics"
	if again, _ := c.Logical("nr"); !maps.Equal(again.Attributes, want) {
		t.Errorf("after Logical-copy mutation, Logical attributes = %v, want %v", again.Attributes, want)
	}
}

// TestLocationOrderIsStringOrder pins the ordering trap: every list is in
// host + ":" + path order, which is not (host, path) order once one host
// extends another by a byte below ':'.
func TestLocationOrderIsStringOrder(t *testing.T) {
	c := NewCatalog()
	if err := c.CreateLogical(LogicalFile{Name: "f", SizeBytes: 1}); err != nil {
		t.Fatal(err)
	}
	for _, host := range []string{"a", "n1", "a-b", "n10", "a.b", "n1-x", "a0"} {
		for _, path := range []string{"/q", "/p"} {
			if err := c.Register("f", Location{Host: host, Path: path}); err != nil {
				t.Fatal(err)
			}
		}
	}
	locs, err := c.Locations("f")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, l := range locs {
		got = append(got, l.String())
	}
	want := []string{"a-b:/p", "a-b:/q", "a.b:/p", "a.b:/q", "a0:/p", "a0:/q", "a:/p", "a:/q",
		"n1-x:/p", "n1-x:/q", "n10:/p", "n10:/q", "n1:/p", "n1:/q"}
	if !slices.Equal(got, want) || !slices.IsSorted(got) {
		t.Errorf("Locations = %v\nwant        %v", got, want)
	}
	// HostsWith sorts host names, which is the other order.
	hosts, err := c.HostsWith("f")
	if want := []string{"a", "a-b", "a.b", "a0", "n1", "n1-x", "n10"}; err != nil || !slices.Equal(hosts, want) {
		t.Errorf("HostsWith = %v, %v; want %v", hosts, err, want)
	}
}

// TestLocationCompareMatchesString checks Compare against the strings it
// stands for over an alphabet of prefixes, separators and empty parts.
func TestLocationCompareMatchesString(t *testing.T) {
	parts := []string{"", "a", "a:", "a:b", "ab", "a-", "a0", ":", "::", "b", "a:b:c", "n1", "n10", "n1:0"}
	sign := func(x int) int { return max(-1, min(1, x)) }
	for _, ah := range parts {
		for _, ap := range parts {
			for _, bh := range parts {
				for _, bp := range parts {
					a, b := Location{Host: ah, Path: ap}, Location{Host: bh, Path: bp}
					if got, want := sign(a.Compare(b)), strings.Compare(a.String(), b.String()); got != want {
						t.Fatalf("Compare(%q, %q) = %d, want %d", a, b, got, want)
					}
				}
			}
		}
	}
}
