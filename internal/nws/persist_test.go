package nws

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestMemoryPersistRoundTrip(t *testing.T) {
	m := NewMemory(0, nil)
	keys := []SeriesKey{
		{Resource: ResourceBandwidth, Source: "hit0", Target: "alpha1"},
		{Resource: ResourceCPU, Source: "lz02"},
	}
	for i, k := range keys {
		for j := 0; j < 5; j++ {
			if err := m.Store(k, Measurement{
				At:    time.Duration(i*100+j) * time.Second,
				Value: float64(10*i + j),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	n, err := m.Save(&buf)
	if err != nil || n != 10 {
		t.Fatalf("Save = %d, %v", n, err)
	}

	restored := NewMemory(0, nil)
	n, err = restored.Load(&buf)
	if err != nil || n != 10 {
		t.Fatalf("Load = %d, %v", n, err)
	}
	for _, k := range keys {
		want, _ := m.History(k)
		got, err := restored.History(k)
		if err != nil || len(got) != len(want) {
			t.Fatalf("history %s = %d/%d, %v", k, len(got), len(want), err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s[%d] = %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
	// Forecasting banks are rebuilt by replay.
	fc, err := restored.Forecast(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := m.Forecast(keys[0])
	if fc.Value != orig.Value {
		t.Fatalf("restored forecast %v != original %v", fc.Value, orig.Value)
	}
}

func TestMemoryReadFromErrors(t *testing.T) {
	m := NewMemory(0, nil)
	if _, err := m.Load(strings.NewReader("{broken")); err == nil {
		t.Fatal("corrupt journal should error")
	}
	if _, err := m.Load(strings.NewReader(`{"value":1}`)); err == nil {
		t.Fatal("missing key should error")
	}
	// Blank lines tolerated.
	if n, err := m.Load(strings.NewReader("\n \n")); err != nil || n != 0 {
		t.Fatalf("blank journal = %d, %v", n, err)
	}
}

func TestMemoryPersistEmpty(t *testing.T) {
	m := NewMemory(0, nil)
	var buf bytes.Buffer
	n, err := m.Save(&buf)
	if err != nil || n != 0 || buf.Len() != 0 {
		t.Fatalf("empty Save = %d, %v, %d bytes", n, err, buf.Len())
	}
}

// TestMemoryPersistAfterNonFinite: a refused NaN used to sit in the
// history and fail the whole journal with "json: unsupported value".
func TestMemoryPersistAfterNonFinite(t *testing.T) {
	m := NewMemory(0, nil)
	k := SeriesKey{Resource: ResourceCPU, Source: "lz02"}
	for _, v := range []float64{0.25, math.NaN(), 0.75} {
		if err := m.Store(k, Measurement{At: time.Second, Value: v}); err != nil && !errors.Is(err, ErrNonFinite) {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if n, err := m.Save(&buf); err != nil || n != 2 {
		t.Fatalf("Save = %d, %v, want 2 measurements", n, err)
	}
	restored := NewMemory(0, nil)
	if n, err := restored.Load(&buf); err != nil || n != 2 {
		t.Fatalf("Load = %d, %v", n, err)
	}
	if last, err := restored.Latest(k); err != nil || last.Value != 0.75 {
		t.Fatalf("restored latest = %v, %v", last, err)
	}
}
