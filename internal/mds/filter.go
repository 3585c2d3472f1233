// Package mds reimplements the slice of the Globus Monitoring and
// Discovery Service the paper uses (§2.1, §3.2): per-host information
// providers collected by a GRIS (Grid Resource Information Service),
// aggregated hierarchically by GIIS (Grid Index Information Service)
// nodes, queried with LDAP-style search filters, and cached with TTLs on
// the simulation clock.
package mds

import (
	"errors"
	"fmt"
	"path"
	"strconv"
	"strings"
)

// Filter is a parsed LDAP-style search filter.
type Filter interface {
	// Matches reports whether the attribute set satisfies the filter.
	Matches(attrs Attributes) bool
	// String renders the filter back to LDAP syntax.
	String() string
}

type andFilter struct{ subs []Filter }

func (f *andFilter) Matches(a Attributes) bool {
	for _, s := range f.subs {
		if !s.Matches(a) {
			return false
		}
	}
	return true
}

func (f *andFilter) String() string { return compositeString("&", f.subs) }

type orFilter struct{ subs []Filter }

func (f *orFilter) Matches(a Attributes) bool {
	for _, s := range f.subs {
		if s.Matches(a) {
			return true
		}
	}
	return false
}

func (f *orFilter) String() string { return compositeString("|", f.subs) }

type notFilter struct{ sub Filter }

func (f *notFilter) Matches(a Attributes) bool { return !f.sub.Matches(a) }
func (f *notFilter) String() string            { return "(!" + f.sub.String() + ")" }

func compositeString(op string, subs []Filter) string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(op)
	for _, s := range subs {
		b.WriteString(s.String())
	}
	b.WriteByte(')')
	return b.String()
}

type cmpOp int

const (
	opEq cmpOp = iota
	opGE
	opLE
)

type cmpFilter struct {
	attr  string
	op    cmpOp
	value string
}

func (f *cmpFilter) Matches(a Attributes) bool {
	got, ok := a[f.attr]
	if !ok {
		return false
	}
	switch f.op {
	case opEq:
		if strings.Contains(f.value, "*") {
			ok, err := path.Match(f.value, got)
			return err == nil && ok
		}
		return got == f.value
	case opGE, opLE:
		// Numeric comparison when both sides parse; string otherwise.
		gn, gerr := strconv.ParseFloat(got, 64)
		wn, werr := strconv.ParseFloat(f.value, 64)
		if gerr == nil && werr == nil {
			if f.op == opGE {
				return gn >= wn
			}
			return gn <= wn
		}
		if f.op == opGE {
			return got >= f.value
		}
		return got <= f.value
	default:
		return false
	}
}

func (f *cmpFilter) String() string {
	op := "="
	switch f.op {
	case opGE:
		op = ">="
	case opLE:
		op = "<="
	}
	return "(" + f.attr + op + f.value + ")"
}

// ParseFilter parses an LDAP-style search filter, e.g.
//
//	(&(Mds-Host-hn=alpha*)(Mds-Cpu-Free-percent>=50))
//
// Supported: &, |, ! composites; =, >=, <= comparisons; '*' wildcards in
// equality values.
func ParseFilter(s string) (Filter, error) {
	p := &filterParser{in: s}
	f, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("mds: bad filter %q: %w", s, err)
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("mds: bad filter %q: trailing input at %d", s, p.pos)
	}
	return f, nil
}

type filterParser struct {
	in  string
	pos int
}

func (p *filterParser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

func (p *filterParser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.in) || p.in[p.pos] != c {
		return fmt.Errorf("expected %q at %d", string(c), p.pos)
	}
	p.pos++
	return nil
}

func (p *filterParser) peek() (byte, bool) {
	p.skipSpace()
	if p.pos >= len(p.in) {
		return 0, false
	}
	return p.in[p.pos], true
}

func (p *filterParser) parse() (Filter, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	c, ok := p.peek()
	if !ok {
		return nil, errors.New("unexpected end of filter")
	}
	switch c {
	case '&', '|':
		p.pos++
		var subs []Filter
		for {
			n, ok := p.peek()
			if !ok {
				return nil, errors.New("unterminated composite")
			}
			if n == ')' {
				break
			}
			sub, err := p.parse()
			if err != nil {
				return nil, err
			}
			subs = append(subs, sub)
		}
		if len(subs) == 0 {
			return nil, errors.New("empty composite filter")
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		if c == '&' {
			return &andFilter{subs}, nil
		}
		return &orFilter{subs}, nil
	case '!':
		p.pos++
		sub, err := p.parse()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return &notFilter{sub}, nil
	default:
		return p.parseComparison()
	}
}

func (p *filterParser) parseComparison() (Filter, error) {
	start := p.pos
	for p.pos < len(p.in) && p.in[p.pos] != '=' && p.in[p.pos] != '>' && p.in[p.pos] != '<' && p.in[p.pos] != ')' && p.in[p.pos] != '(' {
		p.pos++
	}
	attr := strings.TrimSpace(p.in[start:p.pos])
	if attr == "" {
		return nil, fmt.Errorf("missing attribute at %d", start)
	}
	if strings.ContainsAny(attr[:1], "&|!") {
		// Only whitespace skipSpace does not skip ("(\n!=x)") gets an
		// operator here, and the rendered filter would parse as a composite.
		return nil, fmt.Errorf("attribute %q at %d starts with an operator", attr, start)
	}
	if p.pos >= len(p.in) {
		return nil, errors.New("missing operator")
	}
	var op cmpOp
	switch p.in[p.pos] {
	case '=':
		op = opEq
		p.pos++
	case '>':
		p.pos++
		if err := p.expect('='); err != nil {
			return nil, err
		}
		op = opGE
	case '<':
		p.pos++
		if err := p.expect('='); err != nil {
			return nil, err
		}
		op = opLE
	default:
		return nil, fmt.Errorf("bad operator at %d", p.pos)
	}
	vstart := p.pos
	depth := 0
	for p.pos < len(p.in) {
		if p.in[p.pos] == '(' {
			depth++
		}
		if p.in[p.pos] == ')' {
			if depth == 0 {
				break
			}
			depth--
		}
		p.pos++
	}
	value := strings.TrimSpace(p.in[vstart:p.pos])
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return &cmpFilter{attr: attr, op: op, value: value}, nil
}

// MatchAll is the filter that matches every entry (LDAP's objectclass
// present filter analogue).
var MatchAll Filter = matchAll{}

type matchAll struct{}

func (matchAll) Matches(Attributes) bool { return true }
func (matchAll) String() string          { return "(objectclass=*)" }
