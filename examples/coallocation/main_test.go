package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example end to end on a 2 MiB payload over real
// loopback sockets. run compares every download with the payload byte
// for byte and fails on the first difference; the output carries wall
// timings, so only its last step is checked.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 2<<20); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "note how the slow server is handed fewer chunks automatically") {
		t.Fatalf("output lacks %q:\n%s", "note how the slow server is handed fewer chunks automatically", out.String())
	}
}
