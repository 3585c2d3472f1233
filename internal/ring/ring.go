// Package ring provides the bounded history every monitor keeps: the last
// N values in arrival order, overwritten in place once N have arrived.
package ring

// Buffer holds at most limit values. Storage grows by append with the
// data, so a history that stays short stays small, and is never
// reallocated once it is full.
type Buffer[T any] struct {
	buf   []T
	head  int // index of the oldest value once the buffer is full
	limit int
}

// New returns an empty buffer bounded at limit values; limit must be
// positive.
func New[T any](limit int) Buffer[T] { return Buffer[T]{limit: limit} }

// Len returns the number of values held.
func (b *Buffer[T]) Len() int { return len(b.buf) }

// Push stores v as the newest value. Once the buffer is full it overwrites
// the oldest value and returns it with evicted set.
func (b *Buffer[T]) Push(v T) (old T, evicted bool) {
	if len(b.buf) < b.limit {
		b.buf = append(b.buf, v)
		return old, false
	}
	old = b.buf[b.head]
	b.buf[b.head] = v
	if b.head++; b.head == b.limit {
		b.head = 0
	}
	return old, true
}

// At returns the i-th oldest value, 0 <= i < Len; At(Len()-1) is the
// newest. The pointer is valid until the next Push.
func (b *Buffer[T]) At(i int) *T {
	if i += b.head; i >= len(b.buf) {
		i -= len(b.buf)
	}
	return &b.buf[i]
}

// Segments returns the values oldest first as two runs of the underlying
// storage; the second is empty until the buffer has wrapped. The runs are
// valid until the next Push.
func (b *Buffer[T]) Segments() (older, newer []T) {
	return b.buf[b.head:], b.buf[:b.head]
}

// Slice returns a copy of the values, oldest first; nil when empty.
func (b *Buffer[T]) Slice() []T {
	if len(b.buf) == 0 {
		return nil
	}
	older, newer := b.Segments()
	return append(append(make([]T, 0, len(b.buf)), older...), newer...)
}
