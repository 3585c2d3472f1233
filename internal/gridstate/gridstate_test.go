package gridstate

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeSource is a versioned substrate whose revision tests bump by hand.
type fakeSource struct{ rev uint64 }

func (f *fakeSource) Revision() uint64 { return f.rev }

// fakeBuilder synthesizes per-host records and counts builds; hosts in
// fail build to their configured error.
type fakeBuilder struct {
	calls int
	fail  map[string]error
	// bump, when set, is incremented during every build — it models the
	// live pull path refreshing a TTL'd directory cache as a side effect.
	bump *fakeSource
}

func (b *fakeBuilder) BuildHostPerf(host string, now time.Duration) (HostPerf, error) {
	b.calls++
	if b.bump != nil {
		b.bump.rev++
	}
	if err, ok := b.fail[host]; ok {
		return HostPerf{}, err
	}
	return HostPerf{
		Host: host, Local: "alpha1",
		BandwidthPercent: float64(10 * len(host)),
		CPUIdlePercent:   50, IOIdlePercent: 60,
		At: now,
	}, nil
}

func newTestPublisher(t *testing.T, hosts []string, b *fakeBuilder, srcs ...Source) *Publisher {
	t.Helper()
	p, err := NewPublisher("alpha1", hosts, b, srcs...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPublisherValidation(t *testing.T) {
	b := &fakeBuilder{}
	if _, err := NewPublisher("", []string{"a"}, b); err == nil {
		t.Fatal("empty local should be rejected")
	}
	if _, err := NewPublisher("alpha1", []string{"a"}, nil); err == nil {
		t.Fatal("nil builder should be rejected")
	}
	if _, err := NewPublisher("alpha1", []string{"a"}, b, nil); err == nil {
		t.Fatal("nil source should be rejected")
	}
	if _, err := NewPublisher("alpha1", []string{"a", ""}, b); err == nil {
		t.Fatal("empty host name should be rejected")
	}
	if _, err := NewPublisher("alpha1", []string{"a", "a"}, b); err == nil {
		t.Fatal("duplicate host should be rejected")
	}
}

func TestSnapshotReusedWhileFresh(t *testing.T) {
	src := &fakeSource{}
	b := &fakeBuilder{}
	p := newTestPublisher(t, []string{"b", "a"}, b, src)

	s1 := p.Snapshot(5 * time.Second)
	if s1.Epoch() != 1 {
		t.Fatalf("first epoch = %d, want 1", s1.Epoch())
	}
	if got := b.calls; got != 2 {
		t.Fatalf("builds = %d, want 2 (one per host)", got)
	}
	s2 := p.Snapshot(5 * time.Second)
	if s2 != s1 {
		t.Fatal("unchanged clock and revisions must reuse the snapshot")
	}
	if b.calls != 2 {
		t.Fatalf("reuse rebuilt: builds = %d", b.calls)
	}
}

func TestSnapshotRebuildsWhenClockMoves(t *testing.T) {
	src := &fakeSource{}
	p := newTestPublisher(t, []string{"a"}, &fakeBuilder{}, src)
	s1 := p.Snapshot(time.Second)
	s2 := p.Snapshot(2 * time.Second)
	if s2 == s1 || s2.Epoch() != 2 {
		t.Fatalf("clock move must republish: epoch %d -> %d", s1.Epoch(), s2.Epoch())
	}
	if r, err := s2.Lookup("a"); err != nil || r.At != 2*time.Second {
		t.Fatalf("Lookup(a) = %+v, %v; want a record built at 2s", r, err)
	}
}

func TestSnapshotRebuildsWhenSourceMoves(t *testing.T) {
	src := &fakeSource{}
	p := newTestPublisher(t, []string{"a"}, &fakeBuilder{}, src)
	s1 := p.Snapshot(time.Second)
	src.rev++
	s2 := p.Snapshot(time.Second)
	if s2 == s1 || s2.Epoch() != 2 {
		t.Fatal("source revision movement must republish")
	}
}

func TestBuildSideEffectsBelongToOwnEpoch(t *testing.T) {
	// The live pull path refreshes TTL'd MDS caches while building, which
	// bumps a source revision. Those bumps are the build's own doing and
	// must not invalidate the snapshot it just produced.
	src := &fakeSource{}
	b := &fakeBuilder{bump: src}
	p := newTestPublisher(t, []string{"a", "b"}, b, src)
	s1 := p.Snapshot(time.Second)
	s2 := p.Snapshot(time.Second)
	if s2 != s1 {
		t.Fatal("build-time revision bumps must not self-invalidate the snapshot")
	}
}

func TestSnapshotStoresBuildErrors(t *testing.T) {
	boom := errors.New("substrate down")
	b := &fakeBuilder{fail: map[string]error{"bad": boom}}
	p := newTestPublisher(t, []string{"bad", "good"}, b)
	s := p.Snapshot(0)
	if _, err := s.Lookup("good"); err != nil {
		t.Fatalf("good host: %v", err)
	}
	// A failed host is still tracked: its lookup is the stored build
	// error, not ErrUntracked.
	if _, err := s.Lookup("bad"); !errors.Is(err, boom) || errors.Is(err, ErrUntracked) {
		t.Fatalf("bad host err = %v, want stored build error", err)
	}
	// Lookup is Index then Record: both agree with it on every tracked
	// host, record and stored error alike, and an untracked host has no
	// index.
	for _, h := range []string{"bad", "good"} {
		want, werr := s.Lookup(h)
		i, ok := s.Index(h)
		if !ok {
			t.Fatalf("Index(%s) untracked", h)
		}
		r, err := s.Record(i)
		if err != werr || err == nil && *r != want {
			t.Fatalf("Record(Index(%s)) = %+v, %v; Lookup = %+v, %v", h, r, err, want, werr)
		}
		if err == nil && r.Host != h {
			t.Fatalf("Record(Index(%s)) is %s's record", h, r.Host)
		}
	}
	if i, ok := s.Index("ghost"); ok {
		t.Fatalf("Index(ghost) = %d, want untracked", i)
	}
	if _, err := s.Lookup("ghost"); !errors.Is(err, ErrUntracked) || err.Error() != `gridstate: host not tracked by snapshot: "ghost" (epoch 1)` {
		t.Fatalf("Lookup(ghost) = %v", err)
	}
}

func TestLookupUntracked(t *testing.T) {
	p := newTestPublisher(t, []string{"a"}, &fakeBuilder{})
	s := p.Snapshot(0)
	if _, err := s.Lookup("ghost"); !errors.Is(err, ErrUntracked) {
		t.Fatalf("err = %v, want ErrUntracked", err)
	}
}

func TestIndexFollowsSortedOrder(t *testing.T) {
	// Every snapshot of a publisher keeps its records in the sorted
	// tracked-host order, so one snapshot's index holds in every later one.
	p := newTestPublisher(t, []string{"c", "a", "b"}, &fakeBuilder{})
	for epoch, now := range []time.Duration{0, time.Second} {
		s := p.Snapshot(now)
		for want, h := range []string{"a", "b", "c"} {
			i, ok := s.Index(h)
			if !ok || i != want {
				t.Fatalf("epoch %d: Index(%s) = %d, %v; want %d", epoch+1, h, i, ok, want)
			}
			if r, err := s.Record(i); err != nil || r.Host != h || r.At != now {
				t.Fatalf("epoch %d: Record(%d) = %+v, %v", epoch+1, i, r, err)
			}
		}
	}
}

func TestConcurrentReaders(t *testing.T) {
	// Immutability contract: once published, a snapshot may be read from
	// any number of goroutines with no synchronization. Run under -race.
	p := newTestPublisher(t, []string{"a", "b", "c"}, &fakeBuilder{})
	s := p.Snapshot(time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				for _, h := range []string{"a", "b", "c"} {
					if _, err := s.Lookup(h); err != nil {
						t.Errorf("Lookup(%s): %v", h, err)
						return
					}
				}
				if _, err := s.Lookup("ghost"); !errors.Is(err, ErrUntracked) {
					t.Errorf("Lookup(ghost): %v, want ErrUntracked", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
