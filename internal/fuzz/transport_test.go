package fuzz

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/transport"
)

// TestTransportSmoke is the transport fuzz smoke: a short
// deterministic campaign against each unbounded-sequence-space transport
// variant (the safe ones — finite S is genuinely breakable, per Theorem 3.1
// extended to the transport layer) must execute its full budget from benign
// seeds with no DL1/safety violation and no codec panic. The corpus round-
// trips through CorpusDir, exercising the input codec on every promoted
// entry.
func TestTransportSmoke(t *testing.T) {
	for _, name := range []string{"swindow-unbounded-w2", "gbn-unbounded-w2"} {
		t.Run(name, func(t *testing.T) {
			proto, err := replay.LookupProtocol(name)
			if err != nil {
				t.Fatalf("LookupProtocol: %v", err)
			}
			t0, r0 := proto.New(nil, nil)
			_, tk := t0.(protocol.ControlKeyer)
			_, rk := r0.(protocol.ControlKeyer)
			if !tk || !rk {
				t.Fatalf("LookupProtocol(%q) = %T, whose endpoints declare no ControlKey quotient", name, proto)
			}
			res, err := Run(Config{
				Protocol:  proto,
				Workers:   1,
				Budget:    1500,
				Seed:      1,
				CorpusDir: t.TempDir(),
				OutDir:    t.TempDir(),
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Execs < 1500 {
				t.Fatalf("campaign executed %d of 1500 budget", res.Execs)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("unbounded %s violated safety under fuzzing: %v", name, res.Violations)
			}
			t.Logf("%s: %d execs, corpus %d, coverage %d", name, res.Execs, res.CorpusSize, res.CoveragePoints)
		})
	}
}

// TestTransportFuzzFindsWrapAlias is the positive control for the smoke
// test: the finite-sequence-space sliding window (s=4, w=2) is breakable —
// a delayed s0 copy aliases sequence 4 after wrap — and the fuzzer must
// rediscover that DL1 from the same benign seeds, certificate included.
func TestTransportFuzzFindsWrapAlias(t *testing.T) {
	res := runCampaign(t, transport.New(4, 2), "DL1", 60000)
	t.Logf("swindow-s4-w2 DL1 found after %d execs, corpus %d, coverage %d",
		res.Execs, res.CorpusSize, res.CoveragePoints)
}

// TestTransportLivelockKeepsUnshrunkCertificate pins the livelock fallback:
// on gbn-s4-w2 the first certified livelock's shrunk schedule loses its
// pumping cycle (the shrunk run strands messages without repeating a joint
// configuration), so the campaign must record the certificate of the
// unshrunk schedule instead of dropping the finding.
func TestTransportLivelockKeepsUnshrunkCertificate(t *testing.T) {
	res, err := Run(Config{
		Protocol: transport.NewGoBackN(4, 2),
		Workers:  1,
		Budget:   3000,
		Seed:     1,
		OutDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var v *Violation
	for _, got := range res.Violations {
		if got.Property == "DL3" {
			v = got
		}
	}
	if v == nil {
		t.Fatalf("no DL3 violation in %d execs (violations: %v)", res.Execs, res.Violations)
	}
	l, err := trace.ReadFile(v.Path)
	if err != nil {
		t.Fatalf("reading certificate: %v", err)
	}
	rr, err := replay.Run(l)
	if err != nil {
		t.Fatalf("replaying certificate: %v", err)
	}
	if rr.Verdict != nil || rr.DL3 == nil || !rr.VerdictMatches {
		t.Fatalf("certificate replays to safety %v, DL3 %v (matches %v); want a reproduced DL3", rr.Verdict, rr.DL3, rr.VerdictMatches)
	}
	if rr.Divergence != nil {
		t.Fatalf("certificate replay diverged: %v", rr.Divergence)
	}
}
