package ring

import (
	"slices"
	"testing"
)

func TestBufferWrapsInPlace(t *testing.T) {
	b := New[int](3)
	if b.Slice() != nil || b.Len() != 0 {
		t.Fatal("new buffer is not empty")
	}
	for i := 1; i <= 3; i++ {
		if _, evicted := b.Push(i); evicted {
			t.Fatalf("Push(%d) evicted before the buffer was full", i)
		}
	}
	for i := 4; i <= 8; i++ {
		old, evicted := b.Push(i)
		if !evicted || old != i-3 {
			t.Fatalf("Push(%d) evicted %d (%v), want %d", i, old, evicted, i-3)
		}
		if got := b.Slice(); !slices.Equal(got, []int{i - 2, i - 1, i}) {
			t.Fatalf("after Push(%d): %v", i, got)
		}
		older, newer := b.Segments()
		if got := append(slices.Clone(older), newer...); !slices.Equal(got, b.Slice()) {
			t.Fatalf("Segments %v+%v disagree with Slice %v", older, newer, b.Slice())
		}
		if *b.At(0) != i-2 || *b.At(b.Len() - 1) != i {
			t.Fatalf("At(0), At(last) = %d, %d", *b.At(0), *b.At(b.Len() - 1))
		}
	}
	if avg := testing.AllocsPerRun(100, func() { b.Push(0) }); avg != 0 {
		t.Fatalf("Push on a full buffer allocates %v objects/op", avg)
	}
}
