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
	if s2.At() != 2*time.Second {
		t.Fatalf("At = %v", s2.At())
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
	if _, err := s.Lookup("bad"); !errors.Is(err, boom) {
		t.Fatalf("bad host err = %v, want stored build error", err)
	}
	if !s.Covers("bad") {
		t.Fatal("failed hosts are still covered")
	}
}

func TestLookupUntracked(t *testing.T) {
	p := newTestPublisher(t, []string{"a"}, &fakeBuilder{})
	s := p.Snapshot(0)
	if _, err := s.Lookup("ghost"); !errors.Is(err, ErrUntracked) {
		t.Fatalf("err = %v, want ErrUntracked", err)
	}
	if s.Covers("ghost") {
		t.Fatal("ghost should not be covered")
	}
}

func TestHostsReturnsSortedCopy(t *testing.T) {
	p := newTestPublisher(t, []string{"c", "a", "b"}, &fakeBuilder{})
	s := p.Snapshot(0)
	hs := s.Hosts()
	if len(hs) != 3 || hs[0] != "a" || hs[1] != "b" || hs[2] != "c" {
		t.Fatalf("Hosts = %v", hs)
	}
	hs[0] = "mutated"
	if s.Hosts()[0] != "a" {
		t.Fatal("Hosts must return a copy")
	}
}

func TestTrackExtendsAndInvalidates(t *testing.T) {
	p := newTestPublisher(t, []string{"a"}, &fakeBuilder{})
	s1 := p.Snapshot(0)
	if err := p.Track("b", "a"); err != nil {
		t.Fatal(err)
	}
	if !p.Covers("b") || len(p.Hosts()) != 2 {
		t.Fatalf("tracked = %v", p.Hosts())
	}
	s2 := p.Snapshot(0)
	if s2 == s1 || !s2.Covers("b") {
		t.Fatal("Track must invalidate and the next snapshot must cover the new host")
	}
	if err := p.Track(""); err == nil {
		t.Fatal("empty host should be rejected")
	}
}

func TestConcurrentReaders(t *testing.T) {
	// Immutability contract: once published, a snapshot (and Current) may
	// be read from any number of goroutines with no synchronization. Run
	// under -race.
	p := newTestPublisher(t, []string{"a", "b", "c"}, &fakeBuilder{})
	s := p.Snapshot(time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				for _, h := range s.Hosts() {
					if _, err := s.Lookup(h); err != nil {
						t.Errorf("Lookup(%s): %v", h, err)
						return
					}
				}
				if c := p.Current(); c == nil || c.Epoch() == 0 {
					t.Error("Current lost the snapshot")
					return
				}
				_ = s.Covers("ghost")
				_, _ = s.Lookup("ghost")
			}
		}()
	}
	wg.Wait()
}
