package mds

import "testing"

// fuzzAttrs are the entries every fuzzed filter is matched against: a CPU
// entry with a parenthesised value, a disk-shaped entry of another
// device, one with odd values, and none.
var fuzzAttrs = []Attributes{
	{AttrHostName: "alpha1", AttrSite: "THU", AttrDevice: "cpu", AttrCPUFreeX100: "7500", "Mds-Cpu-model": "AMD(tm) Athlon(MP)"},
	{"Mds-Host-hn": "hit0", "Mds-Vo-name": "HIT", "Mds-Device-name": "disk", "Mds-Io-Free-percentX100": "500"},
	{"a": "*", "b": "", "c": "-1e3", "": "x"},
	nil,
}

// FuzzParseFilter: the LDAP-style filter parser. It must never panic, an
// accepted filter's rendering must parse back to the same rendering, and
// the two parses must agree on every entry in fuzzAttrs. Seed corpus:
// testdata/fuzz/FuzzParseFilter.
func FuzzParseFilter(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		parsed, err := ParseFilter(s)
		if err != nil {
			return
		}
		rendered := parsed.String()
		again, err := ParseFilter(rendered)
		if err != nil {
			t.Fatalf("%q parses, but its rendering %q does not: %v", s, rendered, err)
		}
		if got := again.String(); got != rendered {
			t.Fatalf("%q renders %q, which re-renders %q", s, rendered, got)
		}
		for _, attrs := range fuzzAttrs {
			if parsed.Matches(attrs) != again.Matches(attrs) {
				t.Fatalf("%q and its rendering %q disagree on %v", s, rendered, attrs)
			}
		}
	})
}
