package transport

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/protocol"
)

// Registry returns the default transport protocols keyed by name —
// the instances `nfvet audit -all` certifies and CI fuzz-smokes. The
// classical selective-repeat sizing S = 2W covers both endpoint families
// (go-back-N's bufferless receiver keeps its joint space small enough to
// also carry the S = 8 sizing within the default state budget), and the
// unbounded sliding window is the transport layer's CONSISTENT specimen —
// the Theorem 3.1 dichotomy, one audit table row apart. Arbitrary sizings
// resolve through Parse.
func Registry() map[string]protocol.Protocol {
	ps := registered()
	m := make(map[string]protocol.Protocol, len(ps))
	for _, p := range ps {
		m[p.Name()] = p
	}
	return m
}

func registered() []protocol.Protocol {
	return []protocol.Protocol{New(4, 2), New(0, 2), NewGoBackN(4, 2), NewGoBackN(8, 4)}
}

// Names returns the default registry names in sorted order.
func Names() []string {
	var out []string
	for _, p := range registered() {
		out = append(out, p.Name())
	}
	sort.Strings(out)
	return out
}

// Parse resolves a transport protocol name — the Name() forms
// "swindow-s<S>-w<W>", "swindow-unbounded-w<W>", "gbn-s<S>-w<W>",
// "gbn-unbounded-w<W>" — to its protocol. ok is false when the name
// is not a transport name; a malformed transport-shaped name also returns
// ok=false and falls through to the caller's unknown-name error.
func Parse(name string) (protocol.Protocol, bool) {
	var rest string
	var mk func(s, w int) protocol.Protocol
	switch {
	case strings.HasPrefix(name, "swindow-"):
		rest = strings.TrimPrefix(name, "swindow-")
		mk = func(s, w int) protocol.Protocol { return New(s, w) }
	case strings.HasPrefix(name, "gbn-"):
		rest = strings.TrimPrefix(name, "gbn-")
		mk = func(s, w int) protocol.Protocol { return NewGoBackN(s, w) }
	default:
		return nil, false
	}
	var s int
	if u, ok := strings.CutPrefix(rest, "unbounded-"); ok {
		rest = u
	} else {
		sPart, wPart, ok := strings.Cut(rest, "-")
		if !ok {
			return nil, false
		}
		digits, ok := strings.CutPrefix(sPart, "s")
		if !ok {
			return nil, false
		}
		n, err := strconv.Atoi(digits)
		if err != nil || n <= 0 {
			return nil, false
		}
		s, rest = n, wPart
	}
	digits, ok := strings.CutPrefix(rest, "w")
	if !ok {
		return nil, false
	}
	w, err := strconv.Atoi(digits)
	if err != nil || w < 1 {
		return nil, false
	}
	return mk(s, w), true
}
