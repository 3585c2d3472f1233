package simxfer

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/hpclab/datagrid/internal/cluster"
	"github.com/hpclab/datagrid/internal/simulation"
)

// submitAndRun submits a request and drives the engine dry.
func submitAndRun(t *testing.T, eng *simulation.Engine, tr *Transferrer, req Request) Result {
	t.Helper()
	var res Result
	got := false
	req.Done = func(r Result) {
		if got {
			t.Fatal("Done fired twice")
		}
		res = r
		got = true
	}
	if err := tr.Submit(req); err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("transfer never finished")
	}
	return res
}

// crashAt downs (or revives) a host at a virtual time.
func crashAt(t *testing.T, eng *simulation.Engine, tb *cluster.Testbed, host string, at time.Duration, down bool) {
	t.Helper()
	if _, err := eng.Schedule(at, func(time.Duration) {
		if err := tb.SetHostDown(host, down); err != nil {
			t.Errorf("SetHostDown(%s, %v): %v", host, down, err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitSingleMatchesStart(t *testing.T) {
	engA, _, trA := newBed(t)
	legacy := run(t, engA, trA, "hit0", "alpha1", 256*mb, GridFTPOptions(4))

	engB, _, trB := newBed(t)
	unified := submitAndRun(t, engB, trB, Request{
		Sources: []string{"hit0"}, Dst: "alpha1", Bytes: 256 * mb,
		Options: GridFTPOptions(4),
	})
	if unified.Started != legacy.Started || unified.Finished != legacy.Finished ||
		unified.Channels != legacy.Channels || unified.Src != legacy.Src {
		t.Fatalf("Submit single diverged from Start: %+v vs %+v", unified, legacy)
	}
	if unified.Err != nil || len(unified.Attempts) != 0 {
		t.Fatalf("legacy path should carry no failover provenance: %+v", unified)
	}
}

func TestSubmitSentinels(t *testing.T) {
	_, _, tr := newBed(t)
	cb := func(Result) {}
	pol := &FailoverPolicy{Mode: FailoverReselect}
	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"nil done", Request{Sources: []string{"hit0"}, Dst: "alpha1", Bytes: 1}, ErrNilDone},
		{"no sources", Request{Dst: "alpha1", Bytes: 1, Done: cb}, ErrNoSources},
		{"zero bytes", Request{Sources: []string{"hit0"}, Dst: "alpha1", Done: cb}, ErrNonPositiveSize},
		{"same endpoint", Request{Sources: []string{"alpha1"}, Dst: "alpha1", Bytes: 1, Done: cb}, ErrSameEndpoint},
		{"duplicate", Request{Sources: []string{"hit0", "lz02", "hit0"}, Dst: "alpha1", Bytes: 1, Done: cb, Scheme: SchemeDynamic}, ErrDuplicateSource},
		{"unknown scheme", Request{Sources: []string{"hit0", "lz02"}, Dst: "alpha1", Bytes: 1, Done: cb, Scheme: Scheme(9)}, ErrUnknownScheme},
		{"unknown host", Request{Sources: []string{"ghost"}, Dst: "alpha1", Bytes: 1, Done: cb}, cluster.ErrUnknownHost},
		{"failover + scheme", Request{Sources: []string{"hit0"}, Dst: "alpha1", Bytes: 1, Done: cb, Scheme: SchemeDynamic, Failover: pol}, ErrFailoverConfig},
		{"failover + stripes", Request{Sources: []string{"hit0"}, Dst: "alpha1", Bytes: 1, Done: cb,
			Options: Options{Protocol: ProtoGridFTPModeE, Stripes: 2}, Failover: pol}, ErrFailoverConfig},
	}
	for _, c := range cases {
		if err := tr.Submit(c.req); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	// The single- and multi-source paths surface the same sentinels.
	if err := start(tr, "alpha1", "hit0", 0, Options{Protocol: ProtoFTP}, cb); !errors.Is(err, ErrNonPositiveSize) {
		t.Errorf("single-source zero bytes: %v", err)
	}
	if err := start(tr, "alpha1", "hit0", 1, Options{Streams: -1}, cb); !errors.Is(err, ErrNegativeOption) {
		t.Errorf("single-source negative streams: %v", err)
	}
	if err := start(tr, "alpha1", "hit0", 1, Options{Protocol: ProtoFTP, Streams: 2}, cb); !errors.Is(err, ErrSingleChannel) {
		t.Errorf("single-source parallel FTP: %v", err)
	}
	if err := startMulti(tr, []string{"hit0", "hit0"}, "alpha1", 1, GridFTPOptions(0), SchemeDynamic, cb); !errors.Is(err, ErrDuplicateSource) {
		t.Errorf("multi-source duplicate: %v", err)
	}
	if err := startMulti(tr, []string{"hit0"}, "alpha1", 1,
		Options{Protocol: ProtoGridFTPModeE, Streams: 2, Stripes: 2}, SchemeDynamic, cb); !errors.Is(err, ErrStripedCoalloc) {
		t.Errorf("multi-source striped: %v", err)
	}
}

func TestNoRetryFailsWhenSourceCrashes(t *testing.T) {
	eng, tb, tr := newBed(t)
	crashAt(t, eng, tb, "hit0", 10*time.Second, true)
	res := submitAndRun(t, eng, tr, Request{
		Sources: []string{"hit0"}, Dst: "alpha1", Bytes: 256 * mb,
		Options:  GridFTPOptions(0),
		Failover: &FailoverPolicy{Mode: NoRetry},
	})
	if !errors.Is(res.Err, ErrTransferFailed) {
		t.Fatalf("Err = %v, want ErrTransferFailed", res.Err)
	}
	if len(res.Attempts) != 1 {
		t.Fatalf("attempts = %d, want 1 under NoRetry", len(res.Attempts))
	}
	a := res.Attempts[0]
	if a.Outcome != AttemptFailed || a.Source != "hit0" || a.Err == nil {
		t.Fatalf("attempt = %+v", a)
	}
	if a.BytesDelivered <= 0 || a.BytesDelivered >= 256*mb {
		t.Fatalf("mid-transfer crash should leave a partial file, got %d", a.BytesDelivered)
	}
}

func TestFailoverReselectSwitchesReplica(t *testing.T) {
	eng, tb, tr := newBed(t)
	crashAt(t, eng, tb, "hit0", 10*time.Second, true)
	res := submitAndRun(t, eng, tr, Request{
		Sources: []string{"hit0", "lz02"}, Dst: "alpha1", Bytes: 256 * mb,
		Options:  GridFTPOptions(0),
		Failover: &FailoverPolicy{Mode: FailoverReselect},
	})
	if res.Err != nil {
		t.Fatalf("failover should complete: %v", res.Err)
	}
	if len(res.Attempts) != 2 {
		t.Fatalf("attempts = %+v, want 2", res.Attempts)
	}
	if res.Attempts[0].Source != "hit0" || res.Attempts[0].Outcome != AttemptFailed {
		t.Fatalf("first attempt = %+v", res.Attempts[0])
	}
	if res.Attempts[1].Source != "lz02" || res.Attempts[1].Outcome != AttemptCompleted {
		t.Fatalf("second attempt = %+v", res.Attempts[1])
	}
	if res.Src != "lz02" {
		t.Fatalf("Result.Src = %q, want the serving replica lz02", res.Src)
	}
	if res.Finished <= 10*time.Second {
		t.Fatalf("Finished = %v, must postdate the crash", res.Finished)
	}
}

func TestFailoverRankOrdersCandidates(t *testing.T) {
	eng, _, tr := newBed(t)
	var rankedWith []string
	res := submitAndRun(t, eng, tr, Request{
		Sources: []string{"hit0", "lz02"}, Dst: "alpha1", Bytes: 64 * mb,
		Options: GridFTPOptions(0),
		Failover: &FailoverPolicy{
			Mode: FailoverReselect,
			Rank: func(now time.Duration, alive []string) []string {
				rankedWith = append([]string(nil), alive...)
				// Deliberately invert the request order.
				return []string{"lz02", "hit0"}
			},
		},
	})
	if res.Err != nil || len(res.Attempts) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if res.Attempts[0].Source != "lz02" {
		t.Fatalf("Rank should pick the first attempt's source, got %q", res.Attempts[0].Source)
	}
	if len(rankedWith) != 2 {
		t.Fatalf("Rank saw candidates %v", rankedWith)
	}
}

func TestRetrySameRecoversAfterFlap(t *testing.T) {
	eng, tb, tr := newBed(t)
	crashAt(t, eng, tb, "hit0", 10*time.Second, true)
	crashAt(t, eng, tb, "hit0", 40*time.Second, false)
	res := submitAndRun(t, eng, tr, Request{
		Sources: []string{"hit0"}, Dst: "alpha1", Bytes: 256 * mb,
		Options: GridFTPOptions(0),
		Failover: &FailoverPolicy{
			Mode:           RetrySame,
			MaxAttempts:    8,
			InitialBackoff: 5 * time.Second,
			MaxBackoff:     20 * time.Second,
		},
	})
	if res.Err != nil {
		t.Fatalf("retry-same should outlast a 30s flap: %v (attempts %+v)", res.Err, res.Attempts)
	}
	if len(res.Attempts) < 2 {
		t.Fatalf("attempts = %+v, want >= 2", res.Attempts)
	}
	for _, a := range res.Attempts {
		if a.Source != "hit0" {
			t.Fatalf("retry-same must pin the source: %+v", a)
		}
	}
	last := res.Attempts[len(res.Attempts)-1]
	if last.Outcome != AttemptCompleted {
		t.Fatalf("last attempt = %+v", last)
	}
}

func TestModeEResumesStreamModeRestarts(t *testing.T) {
	flapped := func(o Options) Result {
		eng, tb, tr := newBed(t)
		crashAt(t, eng, tb, "hit0", 10*time.Second, true)
		crashAt(t, eng, tb, "hit0", 20*time.Second, false)
		return submitAndRun(t, eng, tr, Request{
			Sources: []string{"hit0"}, Dst: "alpha1", Bytes: 256 * mb,
			Options: o,
			Failover: &FailoverPolicy{
				Mode:           RetrySame,
				MaxAttempts:    6,
				InitialBackoff: 4 * time.Second,
				MaxBackoff:     16 * time.Second,
			},
		})
	}
	sum := func(r Result) int64 {
		var n int64
		for _, a := range r.Attempts {
			n += a.BytesDelivered
		}
		return n
	}

	modeE := flapped(GridFTPOptions(4))
	if modeE.Err != nil {
		t.Fatalf("mode E: %v (attempts %+v)", modeE.Err, modeE.Attempts)
	}
	// Extended block mode resumes from the delivered offset: across all
	// attempts each payload byte moves exactly once.
	if got := sum(modeE); got != 256*mb {
		t.Fatalf("mode E delivered %d bytes total, want exactly %d", got, 256*mb)
	}

	stream := flapped(Options{Protocol: ProtoFTP})
	if stream.Err != nil {
		t.Fatalf("stream: %v (attempts %+v)", stream.Err, stream.Attempts)
	}
	// Stream mode restarts from byte zero, so the partial first attempt
	// is rework on top of the full payload.
	if got := sum(stream); got <= 256*mb {
		t.Fatalf("stream mode delivered %d bytes total, want > %d (rework)", got, 256*mb)
	}
	if stream.Duration() <= modeE.Duration() {
		t.Fatalf("restarting (%v) should cost more than resuming (%v)",
			stream.Duration(), modeE.Duration())
	}
}

func TestAttemptTimeoutBoundsSlowAttempts(t *testing.T) {
	eng, _, tr := newBed(t)
	// lz02's 30 Mb/s lossy path needs ~2 min for 256 MB; a 20s budget
	// cuts both attempts short.
	res := submitAndRun(t, eng, tr, Request{
		Sources: []string{"lz02"}, Dst: "alpha1", Bytes: 256 * mb,
		Options: Options{Protocol: ProtoFTP},
		Failover: &FailoverPolicy{
			Mode:           RetrySame,
			MaxAttempts:    2,
			AttemptTimeout: 20 * time.Second,
		},
	})
	if !errors.Is(res.Err, ErrTransferFailed) {
		t.Fatalf("Err = %v, want ErrTransferFailed", res.Err)
	}
	if len(res.Attempts) != 2 {
		t.Fatalf("attempts = %+v", res.Attempts)
	}
	for _, a := range res.Attempts {
		if a.Outcome != AttemptTimedOut || !errors.Is(a.Err, ErrAttemptTimeout) {
			t.Fatalf("attempt = %+v, want timed-out", a)
		}
		if d := a.Ended - a.Started; d != 20*time.Second {
			t.Fatalf("attempt ran %v, want exactly the 20s budget", d)
		}
	}
}

func TestNonFailoverResultHasNilErr(t *testing.T) {
	eng, tb, tr := newBed(t)
	crashAt(t, eng, tb, "hit0", 5*time.Second, true)
	// Without a failover policy a crash on the serving host stalls the
	// flow forever, so this exercises the plain success path on a healthy
	// pair: Done must fire exactly once with a nil Result.Err.
	var gotErr error
	called := false
	err := tr.Submit(Request{
		Sources: []string{"lz02"},
		Dst:     "alpha1",
		Bytes:   8 * mb,
		Options: GridFTPOptions(0),
		Done: func(r Result) {
			called = true
			gotErr = r.Err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntil(math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if !called || gotErr != nil {
		t.Fatalf("called=%v err=%v", called, gotErr)
	}
}
