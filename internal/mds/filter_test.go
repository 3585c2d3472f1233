package mds

import (
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, s string) Filter {
	t.Helper()
	f, err := ParseFilter(s)
	if err != nil {
		t.Fatalf("ParseFilter(%q): %v", s, err)
	}
	return f
}

func TestParseSimpleEquality(t *testing.T) {
	f := mustParse(t, "(Mds-Host-hn=alpha1)")
	if !f.Matches(Attributes{"Mds-Host-hn": "alpha1"}) {
		t.Fatal("should match exact value")
	}
	if f.Matches(Attributes{"Mds-Host-hn": "alpha2"}) {
		t.Fatal("should not match different value")
	}
	if f.Matches(Attributes{"other": "alpha1"}) {
		t.Fatal("missing attribute should not match")
	}
}

func TestParseWildcard(t *testing.T) {
	f := mustParse(t, "(Mds-Host-hn=alpha*)")
	for _, h := range []string{"alpha1", "alpha4", "alpha"} {
		if !f.Matches(Attributes{"Mds-Host-hn": h}) {
			t.Fatalf("wildcard should match %q", h)
		}
	}
	if f.Matches(Attributes{"Mds-Host-hn": "hit0"}) {
		t.Fatal("wildcard should not match hit0")
	}
	mid := mustParse(t, "(name=*hit*)")
	if !mid.Matches(Attributes{"name": "gridhit3"}) {
		t.Fatal("inner wildcard should match")
	}
}

func TestParseNumericComparison(t *testing.T) {
	ge := mustParse(t, "(Mds-Cpu-Free-1minX100>=5000)")
	if !ge.Matches(Attributes{"Mds-Cpu-Free-1minX100": "7000"}) {
		t.Fatal(">= should match larger")
	}
	if ge.Matches(Attributes{"Mds-Cpu-Free-1minX100": "4000"}) {
		t.Fatal(">= should not match smaller")
	}
	// Numeric, not lexicographic: "900" < "5000" numerically.
	if ge.Matches(Attributes{"Mds-Cpu-Free-1minX100": "900"}) {
		t.Fatal("comparison must be numeric")
	}
	le := mustParse(t, "(load<=0.5)")
	if !le.Matches(Attributes{"load": "0.25"}) || le.Matches(Attributes{"load": "0.75"}) {
		t.Fatal("<= wrong")
	}
}

func TestParseStringComparison(t *testing.T) {
	f := mustParse(t, "(name>=m)")
	if !f.Matches(Attributes{"name": "zeta"}) || f.Matches(Attributes{"name": "alpha"}) {
		t.Fatal("string >= fallback wrong")
	}
}

func TestParseComposites(t *testing.T) {
	and := mustParse(t, "(&(site=THU)(device=cpu))")
	if !and.Matches(Attributes{"site": "THU", "device": "cpu"}) {
		t.Fatal("and should match both")
	}
	if and.Matches(Attributes{"site": "THU", "device": "disk"}) {
		t.Fatal("and should fail on one mismatch")
	}
	or := mustParse(t, "(|(site=THU)(site=HIT))")
	if !or.Matches(Attributes{"site": "HIT"}) {
		t.Fatal("or should match second")
	}
	if or.Matches(Attributes{"site": "LiZen"}) {
		t.Fatal("or should fail on neither")
	}
	not := mustParse(t, "(!(site=THU))")
	if not.Matches(Attributes{"site": "THU"}) || !not.Matches(Attributes{"site": "HIT"}) {
		t.Fatal("not wrong")
	}
}

func TestParseNested(t *testing.T) {
	f := mustParse(t, "(&(|(site=THU)(site=HIT))(!(device=disk))(cpu>=50))")
	if !f.Matches(Attributes{"site": "HIT", "device": "cpu", "cpu": "80"}) {
		t.Fatal("nested filter should match")
	}
	if f.Matches(Attributes{"site": "HIT", "device": "disk", "cpu": "80"}) {
		t.Fatal("nested not-clause should exclude disk")
	}
	if f.Matches(Attributes{"site": "LiZen", "device": "cpu", "cpu": "80"}) {
		t.Fatal("nested or-clause should exclude LiZen")
	}
}

func TestParseWhitespaceTolerance(t *testing.T) {
	f := mustParse(t, "( & (site=THU) (device=cpu) )")
	if !f.Matches(Attributes{"site": "THU", "device": "cpu"}) {
		t.Fatal("whitespace-tolerant parse failed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"site=THU",
		"(site=THU",
		"(site=THU))",
		"(&)",
		"(|)",
		"(!)",
		"(=value)",
		"(attr)",
		"(attr>value)",
		"(attr<value)",
		"()",
		"(\n!a=b)", // would render as "(!a=b)", which is no filter
		"(\n&a=b)",
	}
	for _, s := range bad {
		if _, err := ParseFilter(s); err == nil {
			t.Fatalf("ParseFilter(%q) should fail", s)
		}
	}
}

func TestFilterStringRoundTrip(t *testing.T) {
	cases := []string{
		"(site=THU)",
		"(cpu>=50)",
		"(cpu<=50)",
		"(&(a=1)(b=2))",
		"(|(a=1)(b=2))",
		"(!(a=1))",
		"(&(|(a=1)(b=2))(!(c=3)))",
	}
	for _, s := range cases {
		f := mustParse(t, s)
		if f.String() != s {
			t.Fatalf("String() = %q, want %q", f.String(), s)
		}
		// Re-parsing the rendered form must succeed and render identically.
		f2 := mustParse(t, f.String())
		if f2.String() != s {
			t.Fatalf("re-parse of %q = %q", s, f2.String())
		}
	}
}

func TestMatchAll(t *testing.T) {
	if !MatchAll.Matches(nil) || !MatchAll.Matches(Attributes{"x": "y"}) {
		t.Fatal("MatchAll must match everything")
	}
	if MatchAll.String() == "" {
		t.Fatal("MatchAll should render")
	}
}

// Property: parse -> String -> parse is a fixpoint, and both parses agree
// on random attribute sets.
func TestPropertyRoundTripAgreement(t *testing.T) {
	filters := []string{
		"(a=x)", "(a=x*)", "(n>=10)", "(n<=10)",
		"(&(a=x)(n>=5))", "(|(a=x)(a=y))", "(!(a=x))",
	}
	f := func(which uint8, av, nv uint8) bool {
		s := filters[int(which)%len(filters)]
		f1, err := ParseFilter(s)
		if err != nil {
			return false
		}
		f2, err := ParseFilter(f1.String())
		if err != nil {
			return false
		}
		attrs := Attributes{
			"a": string(rune('x' + av%3)),
			"n": string(rune('0' + nv%10)),
		}
		return f1.Matches(attrs) == f2.Matches(attrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
