// Package wallclock exercises the wallclock analyzer: direct wall-clock
// reads are flagged, directive-suppressed sites and bare function
// references (the clock-injection boundary) are not.
package wallclock

import "time"

func bad() time.Duration {
	t := time.Now()                // want `time\.Now reads the wall clock`
	time.Sleep(time.Millisecond)   // want `time\.Sleep reads the wall clock`
	<-time.After(time.Millisecond) // want `time\.After reads the wall clock`
	tm := time.NewTimer(0)         // want `time\.NewTimer reads the wall clock`
	defer tm.Stop()
	return time.Since(t) // want `time\.Since reads the wall clock`
}

// settle is a simulation-side drain loop that gives up after a wall-clock
// budget: it finishes on a fast machine and fails on a slow one, so no
// test that passes here can show it.
func settle(step, done func() bool) bool {
	start := time.Now() // want `time\.Now reads the wall clock`
	for !done() {
		if time.Since(start) > time.Minute || !step() { // want `time\.Since reads the wall clock`
			return false
		}
	}
	return true
}

func suppressedSameLine() time.Time {
	return time.Now() //gridlint:wallclock-ok exercising same-line suppression
}

func suppressedLineAbove() time.Time {
	//gridlint:wallclock-ok exercising previous-line suppression
	return time.Now()
}

// clockField shows the sanctioned injection pattern: referencing
// time.Now (without calling it) to seed a default clock is allowed.
type clockField struct {
	clock func() time.Time
}

func newClockField() *clockField {
	return &clockField{clock: time.Now}
}

// virtual shows the approved style: time arrives as a parameter from the
// simulation engine.
func virtual(now time.Duration) time.Duration {
	return now + time.Second
}
