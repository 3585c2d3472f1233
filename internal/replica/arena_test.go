package replica

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestCatalogRecordsHoldNoPointers pins the layout the collector skips: a
// file record, a location entry and the references inside them hold no
// pointer, so the slices of them are allocated noscan.
func TestCatalogRecordsHoldNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s: the collector scans every record holding it", path, typ.Kind())
		}
	}
	for _, v := range []any{entry{}, span{}, run{}, file{}, attr{}} {
		walk(reflect.TypeOf(v).Name(), reflect.TypeOf(v))
	}
}

type kept struct{ got, want string }

// changed returns the first kept string that no longer reads as it did.
func changed(all []kept) error {
	for i, k := range all {
		if k.got != k.want {
			return fmt.Errorf("string %d handed out as %q now reads %q", i, k.want, k.got)
		}
	}
	return nil
}

// TestArenaStringsNeverChange keeps every path and name the catalog hands
// out while it registers enough files to fill many text chunks and slab
// chunks, moves runs by registering more copies of early files, and
// stores a path longer than a chunk; every string kept must still read as
// it did. A second goroutine keeps and rereads names while the writes go
// on, so that CI's -race run beside the catalog oracle sees the arena's
// bytes read outside the lock while later bytes of the same chunk are
// written.
func TestArenaStringsNeverChange(t *testing.T) {
	c := NewSharded(func(host string) string { return host[:2] })
	var all []kept
	keep := func(got, want string) { all = append(all, kept{got, want}) }
	stop, readerErr := make(chan struct{}), make(chan error, 1)
	stopReader := sync.OnceValue(func() error { close(stop); return <-readerErr })
	defer stopReader()
	go func() {
		var mine []kept
		for {
			select {
			case <-stop:
				readerErr <- changed(mine)
				return
			default:
			}
			for _, n := range c.LogicalNames() {
				if len(mine) < 20_000 {
					mine = append(mine, kept{n, strings.Clone(n)})
				}
			}
			if err := changed(mine); err != nil {
				readerErr <- err
				return
			}
		}
	}()
	long := "/huge/" + strings.Repeat("x", 3*firstText<<10)
	const files = 3000
	for i := 0; i < files; i++ {
		name := fmt.Sprintf("lfn:immutable-%05d", i)
		if err := c.CreateLogical(LogicalFile{Name: name, SizeBytes: 1}); err != nil {
			t.Fatal(err)
		}
		copies := []Location{
			{Host: fmt.Sprintf("r%d-h%d", i%7, i%13), Path: "/grid/" + name},
			{Host: fmt.Sprintf("r%d-h%d", (i+1)%7, i%11), Path: "/grid/" + name},
		}
		if i == files/2 {
			copies = append(copies, Location{Host: "r0-big", Path: long})
		}
		if i%10 == 9 { // a third copy of an earlier file moves its run
			early := fmt.Sprintf("lfn:immutable-%05d", i/2)
			if err := c.Register(early, Location{Host: "r9-late", Path: fmt.Sprintf("/late/%d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		for _, l := range copies {
			if err := c.Register(name, l); err != nil {
				t.Fatal(err)
			}
		}
		locs, err := c.Locations(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range locs {
			keep(l.Path, strings.Clone(l.Path))
		}
		if i%500 == 0 {
			for _, n := range c.LogicalNames() {
				keep(n, strings.Clone(n))
			}
		}
	}
	if len(c.text.chunks) < 10 || len(c.slab.chunks) < 5 {
		t.Fatalf("%d text and %d slab chunks: the test fills too few to cross chunk lines",
			len(c.text.chunks), len(c.slab.chunks))
	}
	if err := stopReader(); err != nil {
		t.Fatalf("reader: %v", err)
	}
	if err := changed(all); err != nil {
		t.Fatal(err)
	}
	// A run longer than a slab chunk gets a chunk of its own.
	name := "lfn:wide"
	if err := c.CreateLogical(LogicalFile{Name: name, SizeBytes: 1}); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < firstSlab<<10+1; i++ {
		l := Location{Host: fmt.Sprintf("r%d-w%05d", i%7, i), Path: "/w"}
		if err := c.Register(name, l); err != nil {
			t.Fatal(err)
		}
		want = append(want, l.String())
	}
	locs, err := c.Locations(name)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(locs))
	for i, l := range locs {
		got[i] = l.String()
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("a %d-copy file lists %d locations, not the %d registered in order", len(want), len(got), len(want))
	}
	t.Logf("%d strings kept over %d text chunks and %d slab chunks", len(all), len(c.text.chunks), len(c.slab.chunks))
}
