package runner

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// squareJobs returns jobs whose results encode (index, captured seed)
// so tests can verify ordering survives any scheduling.
func squareJobs(n int) []Job[int64] {
	jobs := make([]Job[int64], n)
	for i := 0; i < n; i++ {
		seed := DeriveSeed(42, i)
		jobs[i] = Job[int64]{
			Name: fmt.Sprintf("sq/%d", i),
			Run: func() (int64, error) {
				// Burn a little CPU through a seeded RNG so jobs finish
				// out of submission order under parallelism.
				rng := rand.New(rand.NewSource(seed))
				sum := int64(0)
				for k := 0; k < 1000+rng.Intn(1000); k++ {
					sum += int64(rng.Intn(7))
				}
				return int64(i)*1_000_000 + sum%1000, nil
			},
		}
	}
	return jobs
}

func TestRunOrderedAndDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := squareJobs(37)
	var want []int64
	for _, workers := range []int{1, 2, 3, 8, 64} {
		res, err := Run(jobs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res) != len(jobs) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(res), len(jobs))
		}
		for i, r := range res {
			if r.Name != jobs[i].Name {
				t.Fatalf("workers=%d: result %d has Name=%q", workers, i, r.Name)
			}
			if r.Err != nil {
				t.Fatalf("workers=%d: result %d: err=%v", workers, i, r.Err)
			}
		}
		got := Values(res)
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: value[%d] = %d, want %d (results depend on scheduling)",
					workers, i, got[i], want[i])
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	res, err := Run[int](nil, 0)
	if err != nil || len(res) != 0 {
		t.Fatalf("Run(nil) = %v, %v", res, err)
	}
}

func TestRunSurfacesTiming(t *testing.T) {
	jobs := []Job[int]{{
		Name: "spin",
		Run: func() (int, error) {
			// Busy-spin so the wall time is nonzero.
			deadline := time.Now().Add(5 * time.Millisecond)
			x := 0
			for time.Now().Before(deadline) {
				x++
			}
			return x, nil
		},
	}}
	res, err := Run(jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Wall <= 0 {
		t.Fatalf("Wall = %v, want > 0", res[0].Wall)
	}
}

// Every job runs whatever fails, and the error joins every failure in
// submission order: the same text at any worker count.
func TestRunRunsEveryJobAndJoinsErrors(t *testing.T) {
	var ran atomic.Int64
	jobs := make([]Job[int], 10)
	for i := range jobs {
		jobs[i] = Job[int]{Name: fmt.Sprintf("j%d", i), Run: func() (int, error) {
			ran.Add(1)
			if i%3 == 0 {
				return 0, fmt.Errorf("fail-%d", i)
			}
			return i, nil
		}}
	}
	const want = "j0: fail-0\nj3: fail-3\nj6: fail-6\nj9: fail-9"
	for _, workers := range []int{1, 4, 8} {
		ran.Store(0)
		res, err := Run(jobs, workers)
		if err == nil || err.Error() != want {
			t.Fatalf("workers=%d: err = %q, want %q", workers, err, want)
		}
		if ran.Load() != int64(len(jobs)) {
			t.Fatalf("workers=%d: %d of %d jobs ran", workers, ran.Load(), len(jobs))
		}
		for i, r := range res {
			if i%3 != 0 && r.Value != i {
				t.Fatalf("workers=%d: job %d value = %d", workers, i, r.Value)
			}
		}
	}
}

func TestRunRecoversPanics(t *testing.T) {
	jobs := []Job[int]{
		{Name: "ok", Run: func() (int, error) { return 7, nil }},
		{Name: "bad", Run: func() (int, error) { panic("kaboom") }},
	}
	res, err := Run(jobs, 2)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic message", err)
	}
	if res[0].Value != 7 || res[0].Err != nil {
		t.Fatalf("healthy job disturbed: %+v", res[0])
	}
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "panicked") {
		t.Fatalf("panic not converted to error: %+v", res[1])
	}
}

func TestRunAnonymousJobNamesInErrors(t *testing.T) {
	jobs := []Job[int]{{Run: func() (int, error) { return 0, errors.New("x") }}}
	_, err := Run(jobs, 0)
	if err == nil || !strings.Contains(err.Error(), "job[0]") {
		t.Fatalf("err = %v, want job[0] label", err)
	}
}

func TestDeriveSeedGoldenValues(t *testing.T) {
	// Pinned outputs of the SplitMix64 stream: any change to the
	// derivation silently reseeds every -trials replication, so it must
	// be deliberate.
	cases := []struct {
		base  int64
		index int
		want  int64
	}{
		{42, 0, -4767286540954276203},
		{42, 1, 2949826092126892291},
		{42, 2, 5139283748462763858},
		{43, 0, -5014216602933006456},
		{0, 0, -2152535657050944081},
	}
	for _, c := range cases {
		if got := DeriveSeed(c.base, c.index); got != c.want {
			t.Errorf("DeriveSeed(%d, %d) = %d, want %d", c.base, c.index, got, c.want)
		}
	}
}

func TestDeriveSeedInjectiveOverIndexes(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 100_000; i++ {
		s := DeriveSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed(42, %d) == DeriveSeed(42, %d) == %d", i, prev, s)
		}
		seen[s] = i
	}
}

// TestRunStressRace floods the pool with more jobs than workers many
// times over; `go test -race ./internal/runner/...` runs it under the
// race detector (a CI gate). Each job builds private state from the seed
// it captured and hashes it, so any accidental sharing between workers or
// results written to the wrong slot trips the detector or the
// determinism comparison below.
func TestRunStressRace(t *testing.T) {
	const n = 128 // ≥64 concurrent-capable jobs, twice over
	mk := func() []Job[uint64] {
		jobs := make([]Job[uint64], n)
		for i := 0; i < n; i++ {
			seed := DeriveSeed(7, i)
			jobs[i] = Job[uint64]{
				Name: fmt.Sprintf("stress/%d", i),
				Run: func() (uint64, error) {
					rng := rand.New(rand.NewSource(seed))
					buf := make([]uint64, 256)
					for k := range buf {
						buf[k] = rng.Uint64()
					}
					var h uint64 = 1469598103934665603
					for _, v := range buf {
						h = (h ^ v) * 1099511628211
					}
					return h, nil
				},
			}
		}
		return jobs
	}
	resA, err := Run(mk(), 64)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Run(mk(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resA {
		if resA[i].Value != resB[i].Value {
			t.Fatalf("job %d: 64-worker value %x != 3-worker value %x", i, resA[i].Value, resB[i].Value)
		}
	}
}
