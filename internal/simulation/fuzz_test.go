package simulation

import "testing"

// FuzzEngineOps runs TestQueueOracle's storms with the fuzzer's bytes in
// place of the seeded RNG: Schedule, After, backdated schedules, Cancel,
// Stop and RunUntil, callbacks that cancel, schedule, stop and re-enter
// included, on the engine and on the reference engine. Fire order, every
// Cancel and error result, the clock, Pending, Fired and the firing
// event's lead must agree after every operation. The first byte picks a
// narrow or a wide storm; the rest are the draws.
func FuzzEngineOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		wide, data := data[0]&1 == 1, data[1:]
		var reused int
		got := storm(&byteDraws{data: data}, wide, newSubject(&reused), &queueTally{})
		want := storm(&byteDraws{data: data}, wide, refSubject(), &queueTally{})
		if err := diffLogs(got, want); err != nil {
			t.Fatal(err)
		}
	})
}

// byteDraws answers each draw with the next byte modulo n, and with 0 once
// the bytes run out.
type byteDraws struct{ data []byte }

func (b *byteDraws) Intn(n int) int {
	if len(b.data) == 0 {
		return 0
	}
	v := int(b.data[0]) % n
	b.data = b.data[1:]
	return v
}
