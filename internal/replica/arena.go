package replica

import (
	"hash/maphash"
	"strings"
)

// The store keeps its records where the collector does not look: names,
// paths and attributes in a text arena, every file's location entries in
// a slab, the name index in a table of ids. Records point into them with pointer-free
// references, and both arenas are made of chunks that start small, double
// ten times and then stay one size, so a small catalog stays small and a
// large one never copies what it already holds.

// span is a string held in a store's text arena: ref is the chunk index
// shifted left 16 bits plus the offset in that chunk, n is the length.
type span struct{ ref, n uint32 }

// firstText is the first text chunk's size in bytes; from the eleventh
// chunk on every chunk holds firstText<<10 = 64 KiB, so offsets fit in 16
// bits.
const firstText = 64

// text is a store's append-only arena of strings. Each chunk is a
// strings.Builder grown once and never written past its capacity, so a
// written byte never moves or changes, and a string read back is a
// substring of its chunk's String(): no copy, and valid for as long as
// anyone holds it. A string longer than a chunk gets a chunk of its own,
// which takes no other string once its offsets pass 16 bits. Nothing is
// ever taken out.
type text struct {
	cur    strings.Builder // the last chunk, the one being filled
	chunks []string        // each chunk's text so far; the last is cur's
}

// add appends s to the arena and returns where it went.
func (t *text) add(s string) span {
	if len(t.chunks) == 0 || t.cur.Cap()-t.cur.Len() < len(s) || t.cur.Len() > 0xffff {
		if len(t.chunks) == 1<<16 { // invariant: a catalog's text fits the 4 GiB spans address
			panic("replica: catalog text arena is full")
		}
		t.cur = strings.Builder{}
		t.cur.Grow(max(firstText<<min(len(t.chunks), 10), len(s)))
		t.chunks = append(t.chunks, "")
	}
	last := len(t.chunks) - 1
	sp := span{ref: uint32(last)<<16 | uint32(t.cur.Len()), n: uint32(len(s))}
	t.cur.WriteString(s)
	t.chunks[last] = t.cur.String()
	return sp
}

// str returns the string at sp.
func (t *text) str(sp span) string {
	off := sp.ref & 0xffff
	return t.chunks[sp.ref>>16][off : off+sp.n]
}

// run is one file's location entries in the store's slab: ref is the
// chunk index shifted left 12 bits plus the offset in that chunk, n the
// entries in use and cap the room the run has.
type run struct{ ref, n, cap uint32 }

// firstSlab is the first slab chunk's size in entries; from the eleventh
// chunk on every chunk holds firstSlab<<10 = 4096 entries (96 KiB), so
// offsets fit in 12 bits.
const firstSlab = 4

// slab holds every file's entries, each file's as one run inside one
// chunk. A chunk is allocated once at its full size and never reallocated.
// A run grows in place while it is the last in its chunk and the chunk has
// room; otherwise it moves to the end of the newest chunk with twice the
// room, and the room it leaves is not reused. A run longer than a chunk
// gets a chunk of its own.
type slab struct {
	chunks [][]entry // each chunk's entries so far; cap is the chunk's size
}

// entries returns r's entries in use.
func (s *slab) entries(r run) []entry {
	if r.cap == 0 {
		return nil // a file never registered has no run
	}
	off := r.ref & 0xfff
	return s.chunks[r.ref>>12][off : off+r.n]
}

// insert puts e at index at of r's entries, making room first.
func (s *slab) insert(r *run, at int, e entry) {
	if r.n == r.cap {
		s.grow(r)
	}
	off := r.ref & 0xfff
	es := s.chunks[r.ref>>12][off : off+r.n+1]
	copy(es[at+1:], es[at:])
	es[at] = e
	r.n++
}

// remove deletes index i of r's entries.
func (s *slab) remove(r *run, i int) {
	es := s.entries(*r)
	copy(es[i:], es[i+1:])
	r.n--
}

// grow gives r room for one more entry.
func (s *slab) grow(r *run) {
	if r.cap > 0 {
		c, off := r.ref>>12, r.ref&0xfff
		if ch := s.chunks[c]; int(off+r.cap) == len(ch) && len(ch) < cap(ch) {
			s.chunks[c] = ch[:len(ch)+1]
			r.cap++
			return
		}
	}
	want := max(2*r.cap, 1)
	last := len(s.chunks) - 1
	if last < 0 || cap(s.chunks[last])-len(s.chunks[last]) < int(want) || len(s.chunks[last]) > 0xfff {
		if len(s.chunks) == 1<<20 { // invariant: a catalog's entries fit the 4 Gi runs address
			panic("replica: catalog entry slab is full")
		}
		s.chunks = append(s.chunks, make([]entry, 0, max(firstSlab<<min(len(s.chunks), 10), int(want))))
		last++
	}
	ch := s.chunks[last]
	moved := run{ref: uint32(last)<<12 | uint32(len(ch)), n: r.n, cap: want}
	s.chunks[last] = ch[:len(ch)+int(want)]
	copy(s.chunks[last][len(ch):], s.entries(*r))
	*r = moved
}

// nameIndex maps a logical name to its file id: an open-addressed table of
// id+1 (0 marks an empty slot), probed linearly and hashed over the name's
// bytes with a per-store seed. Nothing iterates it, so no output order
// depends on the hash.
type nameIndex struct {
	seed  maphash.Seed
	slots []int32 // a power of two long; grown at 3/4 load
}

func newNameIndex() nameIndex {
	return nameIndex{seed: maphash.MakeSeed(), slots: make([]int32, 8)}
}

// find returns the id of the file named name and its slot, or -1 and the
// empty slot where the name would go; the caller holds mu.
func (s *store) find(name string) (id int32, slot int) {
	mask := len(s.names.slots) - 1
	for i := int(maphash.String(s.names.seed, name)) & mask; ; i = (i + 1) & mask {
		id := s.names.slots[i] - 1
		if id < 0 || s.text.str(s.files[id].name) == name {
			return id, i
		}
	}
}

// growNames doubles the name table once another file would load it past
// 3/4, and rehashes every name from the arena; the caller holds mu for
// writing.
func (s *store) growNames() {
	if 4*(len(s.files)+1) <= 3*len(s.names.slots) {
		return
	}
	s.names.slots = make([]int32, 2*len(s.names.slots))
	mask := len(s.names.slots) - 1
	for id := range s.files {
		i := int(maphash.String(s.names.seed, s.text.str(s.files[id].name))) & mask
		for s.names.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.names.slots[i] = int32(id) + 1
	}
}
