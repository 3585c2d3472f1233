package simxfer

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// TestSubmitOwnsSources: a caller that overwrites its Sources slice as
// soon as Submit returns changes nothing. Every scheduler runs from the
// transfer's own copy, and the Result equals an untouched twin's. The
// Result's slices end at their capacity, so an append copies them.
func TestSubmitOwnsSources(t *testing.T) {
	cases := []struct {
		name string
		req  Request
	}{
		{"split", Request{Sources: []string{"alpha1", "gridhit1"}, Dst: "lz04", Bytes: 64 * mb, Options: GridFTPOptions(2)}},
		{"chunk queue", Request{Sources: []string{"alpha1", "gridhit1"}, Dst: "lz04", Bytes: 64 * mb, Options: GridFTPOptions(2), Scheme: SchemeDynamic}},
		{"failover", Request{Sources: []string{"alpha1", "gridhit1"}, Dst: "lz04", Bytes: 64 * mb, Options: GridFTPOptions(2),
			Failover: &FailoverPolicy{Mode: FailoverReselect}}},
	}
	for _, c := range cases {
		run := func(mutate bool) Result {
			eng, _, tr := newBed(t)
			var res Result
			req := c.req
			req.Sources = append([]string(nil), c.req.Sources...)
			req.Done = func(r Result) { res = r }
			if err := tr.Submit(req); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if mutate {
				req.Sources[0] = "hit0"
			}
			if err := eng.RunUntil(math.MaxInt64); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return res
		}
		twin, got := run(false), run(true)
		if !reflect.DeepEqual(got, twin) {
			t.Errorf("%s: overwriting Sources after Submit moved the Result:\n got %+v\nwant %+v", c.name, got, twin)
		}
		if cap(got.Sources) != len(got.Sources) || cap(got.Attempts) != len(got.Attempts) {
			t.Errorf("%s: Result slices have room to append into: Sources %d/%d, Attempts %d/%d",
				c.name, len(got.Sources), cap(got.Sources), len(got.Attempts), cap(got.Attempts))
		}
	}
}

// TestFailoverRequestAllocs pins a warm failover request, Submit to Done,
// as netsim's TestTransferAllocs pins a bare transfer. The sources, the
// attempt log, the first session and its flow list live in the transfer,
// and the candidates handed to Rank in the transferrer's scratch. The
// session is the receiver of its setup event, its attempt timeout and its
// flows' ends, so what remains is the transfer record and the two Flows.
func TestFailoverRequestAllocs(t *testing.T) {
	eng, _, tr := newBed(t)
	var res Result
	req := Request{
		Sources: []string{"hit0", "lz02"}, Dst: "alpha1", Bytes: 4 * mb, Options: GridFTPOptions(2),
		Failover: &FailoverPolicy{Mode: FailoverReselect, AttemptTimeout: time.Hour},
		Done:     func(r Result) { res = r },
	}
	request := func() {
		res = Result{}
		if err := tr.Submit(req); err != nil {
			t.Fatal(err)
		}
		if err := eng.RunUntil(math.MaxInt64); err != nil {
			t.Fatal(err)
		}
		if res.Err != nil || len(res.Attempts) != 1 || res.Src != "hit0" {
			t.Fatalf("the request did not finish at its first attempt: %+v", res)
		}
	}
	request()
	if avg := testing.AllocsPerRun(20, request); avg != 3 {
		t.Fatalf("a warm failover request allocates %v objects, want 3", avg)
	}
}
