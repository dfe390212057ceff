package fuzz

// The campaign's safety shrink is a pooled, bounded, memoising
// replay.Shrinker. It must not change a single campaign outcome: the tests
// below hold whole campaigns to the log-plus-Run reference shrink, and pin
// the bound and memo contract of the Shrinker itself.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/trace"
)

// referenceShrink is the safety shrink promote ran before the Shrinker:
// unbounded, with every candidate rebuilt as a log and judged by replay.Run.
// It ignores the bound; promote's own size comparison then decides.
func referenceShrink(l *trace.Log, _ int) (*replay.ShrinkResult, error) {
	full, err := replay.Run(l)
	if err != nil {
		return nil, err
	}
	if full.Verdict == nil {
		return nil, errors.New("reference shrink: not a safety violation")
	}
	prop := full.Verdict.Property
	var prelude []trace.Event
	var groups [][]trace.Event
	for _, e := range l.Events {
		switch {
		case e.Kind == trace.KindVerdict:
		case e.Kind.IsOp():
			groups = append(groups, []trace.Event{e})
		case len(groups) == 0:
			prelude = append(prelude, e)
		default:
			groups[len(groups)-1] = append(groups[len(groups)-1], e)
		}
	}
	build := func(keep [][]trace.Event) *trace.Log {
		c := trace.NewLog(l.Meta)
		c.Events = append(c.Events, prelude...)
		for _, g := range keep {
			c.Events = append(c.Events, g...)
		}
		return c
	}
	violates := func(keep [][]trace.Event) bool {
		r, err := replay.Run(build(keep))
		return err == nil && r.Verdict != nil && r.Verdict.Property == prop
	}
	lo, hi := 1, len(groups)
	for lo < hi {
		if mid := (lo + hi) / 2; violates(groups[:mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	kept := append([][]trace.Event(nil), groups[:hi]...)
	for changed := true; changed; {
		changed = false
		for i := len(kept) - 1; i >= 0; i-- {
			trial := append(append([][]trace.Event(nil), kept[:i]...), kept[i+1:]...)
			if violates(trial) {
				kept, changed = trial, true
			}
		}
	}
	final, err := replay.Run(build(kept))
	if err != nil {
		return nil, err
	}
	return &replay.ShrinkResult{Log: final.Log, Property: prop, Oracle: "safety", FinalOps: final.Ops}, nil
}

func certBytes(t *testing.T, l *trace.Log) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := l.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCampaignShrinkIdentity runs serial campaigns twice — with the
// campaign's bounded, memoising Shrinker and with the reference shrink — and
// demands identical outcomes: the trajectory, every stats line, and every
// certificate byte for byte.
func TestCampaignShrinkIdentity(t *testing.T) {
	epoch := time.Unix(0, 0)
	run := func(p protocol.Protocol, seed int64) (*Result, string) {
		t.Helper()
		var stats bytes.Buffer
		res, err := Run(Config{
			Protocol: p, Workers: 1, Budget: 800, Seed: seed,
			Stats: &stats, Clock: func() time.Time { return epoch },
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, stats.String()
	}
	for _, tc := range []struct {
		proto protocol.Protocol
		seed  int64
	}{
		{protocol.NewAltBit(), 1},
		{protocol.NewAltBit(), 2},
		{protocol.NewCheat(1), 1},
	} {
		t.Run(fmt.Sprintf("%s/seed%d", tc.proto.Name(), tc.seed), func(t *testing.T) {
			got, gotStats := run(tc.proto, tc.seed)
			pooled := newShrinker
			newShrinker = func() shrinkFunc { return referenceShrink }
			want, wantStats := run(tc.proto, tc.seed)
			newShrinker = pooled

			if got.Execs != want.Execs || got.CorpusSize != want.CorpusSize ||
				got.CoveragePoints != want.CoveragePoints || got.DL3Misses != want.DL3Misses {
				t.Fatalf("trajectory: execs %d corpus %d coverage %d dl3 %d, reference execs %d corpus %d coverage %d dl3 %d",
					got.Execs, got.CorpusSize, got.CoveragePoints, got.DL3Misses,
					want.Execs, want.CorpusSize, want.CoveragePoints, want.DL3Misses)
			}
			if gotStats != wantStats {
				t.Fatalf("stats lines differ:\n%s\nreference:\n%s", gotStats, wantStats)
			}
			if len(got.Violations) == 0 || len(got.Violations) != len(want.Violations) {
				t.Fatalf("%d violations, reference %d", len(got.Violations), len(want.Violations))
			}
			for i, g := range got.Violations {
				w := want.Violations[i]
				if g.Property != w.Property || g.Corruption != w.Corruption || g.Ops != w.Ops ||
					g.CycleOps != w.CycleOps || g.FoundAtExec != w.FoundAtExec {
					t.Fatalf("violation %d: %s ops %d at exec %d, reference %s ops %d at exec %d",
						i, g.Property, g.Ops, g.FoundAtExec, w.Property, w.Ops, w.FoundAtExec)
				}
				if !bytes.Equal(certBytes(t, g.Cert), certBytes(t, w.Cert)) {
					t.Fatalf("%s certificate differs from the reference:\n%s\nreference:\n%s", g.Property, g.Cert, w.Cert)
				}
			}
		})
	}
}

// violatingLog returns the recorded log of the first safety-violating input
// of a short altbit campaign's corpus.
func violatingLog(t *testing.T) *trace.Log {
	t.Helper()
	dir := t.TempDir()
	p := protocol.NewAltBit()
	if _, err := Run(Config{Protocol: p, Workers: 1, Budget: 200, Seed: 1, CorpusDir: dir}); err != nil {
		t.Fatal(err)
	}
	inputs, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	core := NewCore(p)
	for _, in := range inputs {
		if res := core.Execute(in, true); res.Verdict != nil {
			return res.Log
		}
	}
	t.Fatal("altbit campaign bred no violating input")
	return nil
}

// TestShrinkerBoundAndMemo pins the Shrinker's bound and memo contract: the
// bound rejects exactly the results that would not beat it, a memoised
// prefix is rejected without re-shrinking only under a bound it cannot
// beat, and a raised bound recomputes the same certificate.
func TestShrinkerBoundAndMemo(t *testing.T) {
	l := violatingLog(t)
	full, err := replay.Shrink(l)
	if err != nil {
		t.Fatal(err)
	}
	n := full.FinalOps

	// The same minimal violating prefix, reached from a longer trace: a
	// trailing drain cannot undo a safety violation.
	longer := l.Clone()
	longer.Events = append(longer.Events, trace.Event{Kind: trace.KindDrain})

	s := replay.NewShrinker()
	if _, err := s.Shrink(l, n); !errors.Is(err, replay.ErrNotSmaller) {
		t.Fatalf("bound %d = result size: err %v, want ErrNotSmaller", n, err)
	}
	if _, err := s.Shrink(longer, n); !errors.Is(err, replay.ErrNotSmaller) {
		t.Fatalf("memoised prefix under bound %d: err %v, want ErrNotSmaller", n, err)
	}
	for _, in := range []*trace.Log{l, longer} {
		sr, err := s.Shrink(in, n+1)
		if err != nil {
			t.Fatalf("raised bound %d: %v (a memoised prefix must recompute)", n+1, err)
		}
		if sr.FinalOps != n || !bytes.Equal(certBytes(t, sr.Log), certBytes(t, full.Log)) {
			t.Fatalf("raised bound: %d ops, want the unbounded %d-op certificate", sr.FinalOps, n)
		}
	}
	sr, err := s.Shrink(l, math.MaxInt)
	if err != nil || sr.Replays != full.Replays {
		t.Fatalf("unbounded re-shrink on a used Shrinker: %v, replays %v, want %d", err, sr, full.Replays)
	}
}
