package fuzz

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/stabilize"
	"repro/internal/trace"
)

// TestCorruptGeneCodecRoundTrip round-trips a v2 (gene-carrying) input and
// pins the version gating: a gene-free input must encode byte-identically to
// the v1 format, so existing corpus directories keep their content-addressed
// names after this reader upgrade.
func TestCorruptGeneCodecRoundTrip(t *testing.T) {
	in := &Input{
		Ops:     []Op{{Kind: OpSubmit}, {Kind: OpTransmit}},
		Data:    []trace.Decision{trace.Delay},
		Ack:     []trace.Decision{trace.DeliverNow},
		Corrupt: &CorruptGene{TPick: 3, RPick: 200, Data: []uint8{7, 7, 250}, Ack: []uint8{1}},
	}
	enc := in.Encode()
	if enc[4] != inputVersionV2 {
		t.Fatalf("gene-carrying input stamped version %d, want %d", enc[4], inputVersionV2)
	}
	out, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(out.Encode(), enc) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	if out.Corrupt == nil || out.Corrupt.TPick != 3 || out.Corrupt.RPick != 200 ||
		len(out.Corrupt.Data) != 3 || len(out.Corrupt.Ack) != 1 {
		t.Fatalf("gene did not survive the round trip: %+v", out.Corrupt)
	}

	clean := in.Clone()
	clean.Corrupt = nil
	if got := clean.Encode(); got[4] != inputVersionV1 {
		t.Fatalf("gene-free input stamped version %d, want %d", got[4], inputVersionV1)
	}
}

// TestCorruptGeneVersionSkew pins the version-skew story both ways: a reader
// that predates the gene (simulated by re-stamping a v2 file as v1) rejects
// the gene bytes as trailing garbage instead of misparsing them, and an
// unknown future version is rejected by name.
func TestCorruptGeneVersionSkew(t *testing.T) {
	in := &Input{
		Ops:     []Op{{Kind: OpSubmit}},
		Corrupt: &CorruptGene{Data: []uint8{1}},
	}
	enc := in.Encode()

	asV1 := append([]byte(nil), enc...)
	asV1[4] = inputVersionV1
	if _, err := Decode(asV1); err == nil {
		t.Fatalf("v1 reader parse of gene bytes succeeded; want trailing-bytes rejection")
	} else if !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("v1 reader rejected gene bytes with %v; want a trailing-bytes error", err)
	}

	future := append([]byte(nil), enc...)
	future[4] = 9
	if _, err := Decode(future); err == nil || !strings.Contains(err.Error(), "unsupported version 9") {
		t.Fatalf("future version not rejected clearly: %v", err)
	}

	tooMany := &Input{Ops: []Op{{Kind: OpSubmit}}, Corrupt: &CorruptGene{Data: make([]uint8, MaxPoisonGenes+1)}}
	if _, err := Decode(tooMany.Encode()); err == nil {
		t.Fatalf("over-cap poison pick count accepted")
	}
}

// TestResolveCorruption pins gene resolution: picks reduce modulo the space,
// multisets canonicalize (sorted), and non-Corruptible protocols resolve
// everything to the clean start.
func TestResolveCorruption(t *testing.T) {
	var p protocol.Protocol = protocol.NewStabNaive()
	cp, ok := p.(protocol.Corruptible)
	if !ok {
		t.Fatalf("stabnaive is not Corruptible")
	}
	space := cp.Corruptions()

	g := &CorruptGene{
		TPick: uint8(len(space.Transmitters)), // mod → 0
		RPick: 1,
		Data:  []uint8{uint8(len(space.DataPoison)), 0}, // both mod → 0
		Ack:   []uint8{1, 0},                            // unsorted picks
	}
	c := resolveCorruption(p, g)
	if c.TIdx != 0 {
		t.Fatalf("TPick did not reduce modulo the space: %d", c.TIdx)
	}
	if c.RIdx != 1%len(space.Receivers) {
		t.Fatalf("RIdx = %d", c.RIdx)
	}
	if len(c.Data) != 2 || c.Data[0] != space.DataPoison[0] || c.Data[1] != space.DataPoison[0] {
		t.Fatalf("data poison resolution: %+v", c.Data)
	}
	// Gene order must not matter: the resolved multiset is canonical.
	rev := &CorruptGene{TPick: g.TPick, RPick: g.RPick, Data: []uint8{0, uint8(len(space.DataPoison))}, Ack: []uint8{0, 1}}
	if resolveCorruption(p, rev).Key() != c.Key() {
		t.Fatalf("pick order changed the resolved corruption key")
	}

	if got := resolveCorruption(protocol.NewSeqNum(), g); !got.Clean() {
		t.Fatalf("non-Corruptible protocol resolved to %s, want clean", got)
	}
}

// TestExecuteCorruptedJudgesByAmnesty pins the executor's corrupted-run
// semantics: the same schedule is safety-clean from a clean start, and its
// corrupted twin is judged by the amnesty judge (with the corruption and
// budget reported), not the clean-start checkers. Coverage points must be
// salted apart — a corrupted orbit is not the clean orbit.
func TestExecuteCorruptedJudgesByAmnesty(t *testing.T) {
	p := protocol.NewStabNaive()
	in := SeedInputs()[0]
	clean := NewCore(p).Execute(in, false)
	if clean.Verdict != nil {
		t.Fatalf("benign seed violates %v from a clean start", clean.Verdict)
	}

	corrupted := in.Clone()
	corrupted.Corrupt = &CorruptGene{Data: []uint8{0}}
	res := NewCore(p).Execute(corrupted, false)
	if res.Corruption.Clean() {
		t.Fatalf("gene resolved to the clean start")
	}
	if res.Amnesty != stabilize.Amnesty(res.Corruption, CorruptOccupancy) {
		t.Fatalf("amnesty %d not derived from the resolved corruption", res.Amnesty)
	}
	if len(res.Points) != len(clean.Points) {
		t.Fatalf("corrupted run has %d points, clean %d", len(res.Points), len(clean.Points))
	}
	same := 0
	for i := range res.Points {
		if res.Points[i] == clean.Points[i] {
			same++
		}
	}
	if same == len(res.Points) {
		t.Fatalf("corrupted coverage points identical to clean ones (salt missing)")
	}
}

// TestMutateCorruptFeasibility: every gene the mutator can produce stays
// within the codec caps, round-trips, and resolves for every protocol.
func TestMutateCorruptFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in := SeedInputs()[0].Clone()
	for i := 0; i < 2000; i++ {
		MutateCorrupt(in, rng)
		if g := in.Corrupt; g != nil {
			if len(g.Data) > MaxPoisonGenes || len(g.Ack) > MaxPoisonGenes {
				t.Fatalf("iteration %d: gene exceeds poison cap: %+v", i, g)
			}
		}
		if _, err := Decode(in.Encode()); err != nil {
			t.Fatalf("iteration %d: mutated input not decodable: %v", i, err)
		}
		resolveCorruption(protocol.NewStabNaive(), in.Corrupt)
		resolveCorruption(protocol.NewSeqNum(), in.Corrupt)
	}
}

// TestCorruptFindsStabNaiveDivergence is the acceptance test for the
// corrupted-start dimension: fuzzing stabnaive — which is clean-start
// correct, so the clean campaign finds nothing — with -corrupt semantics
// must rediscover an over-amnesty divergence from benign seeds, and the
// promoted certificate must replay divergence-free and re-judge to the same
// property under the amnesty recorded in its metadata.
func TestCorruptFindsStabNaiveDivergence(t *testing.T) {
	out := t.TempDir()
	res, err := Run(Config{
		Protocol:        protocol.NewStabNaive(),
		Workers:         1,
		Budget:          30000,
		Seed:            1,
		OutDir:          out,
		Corrupt:         true,
		StopOnViolation: true,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var v *Violation
	for _, got := range res.Violations {
		if got.Corruption != "" {
			v = got
		}
	}
	if v == nil {
		t.Fatalf("no corrupted-start violation in %d execs (violations: %v)", res.Execs, res.Violations)
	}
	if v.Path == "" {
		t.Fatalf("corrupted-start violation has no certificate file")
	}
	l, err := trace.ReadFile(v.Path)
	if err != nil {
		t.Fatalf("reading certificate: %v", err)
	}
	if l.Meta[stabilize.MetaCorruption] != v.Corruption {
		t.Fatalf("certificate metadata corruption %q, violation %q", l.Meta[stabilize.MetaCorruption], v.Corruption)
	}
	rr, err := replay.Run(l)
	if err != nil {
		t.Fatalf("replaying certificate: %v", err)
	}
	if rr.Divergence != nil {
		t.Fatalf("certificate replay diverged: %v", rr.Divergence)
	}
	j := stabilize.JudgeTrace(rr.Trace, mustAtoi(t, l.Meta[stabilize.MetaAmnesty]))
	if j.Violation == nil || j.Violation.Property != v.Property {
		t.Fatalf("certificate re-judges to %v, want %s", j.Violation, v.Property)
	}
	t.Logf("stabnaive %s from %s found after %d execs (amnesty %s, %d charges)",
		v.Property, v.Corruption, res.Execs, l.Meta[stabilize.MetaAmnesty], j.Charges)
}

func mustAtoi(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			t.Fatalf("not a number: %q", s)
		}
		n = n*10 + int(r-'0')
	}
	return n
}
