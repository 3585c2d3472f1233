package main

import "testing"

// A hand-built tree: the root's two children overlap each other and the
// second sticks out past the root's end; a grandchild sits inside the first.
//
//	root        0 ....................... 100
//	  a           10 ........ 50
//	    a1           20 .. 30
//	  b                  40 ............... 120
//	  c                        60 . 70           (inside b: adds nothing)
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: 0, parent: -1, start: 0, end: 100},
		{name: 1, parent: 0, start: 10, end: 50},
		{name: 2, parent: 1, start: 20, end: 30},
		{name: 3, parent: 0, start: 40, end: 120},
		{name: 4, parent: 0, start: 60, end: 70},
	}
	// The root is covered from 10 to 100: the union of a and b, clipped.
	want := []int64{10, 30, 10, 80, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRecorderNestsAndTotals(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("root", -1)
	for op := 0; op < 3; op++ {
		id := rec.begin("leaf", op)
		rec.end(id)
	}
	rec.end(root)
	if len(rec.spans) != 4 || rec.spans[2].parent != root || rec.spans[2].op != 1 {
		t.Fatalf("spans %+v: want three leaves under the root, op ids 0..2", rec.spans)
	}
	tot := rec.totals()
	if tot["leaf"].Count != 3 || tot["root"].Count != 1 {
		t.Errorf("totals %+v", tot)
	}
	if got, want := tot["root"].Self+tot["leaf"].Total, tot["root"].Total; got < want*0.999999 || got > want*1.000001 {
		t.Errorf("root self %v + leaves %v != root total %v", tot["root"].Self, tot["leaf"].Total, want)
	}
	if n := len(rec.durations("leaf")); n != 3 {
		t.Errorf("durations(leaf) has %d entries, want 3", n)
	}

	// A nil recorder is the untraced run: every call is a no-op.
	var off *recorder
	off.end(off.begin("x", 0))
}
