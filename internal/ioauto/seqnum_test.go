package ioauto

import (
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/verify"
)

// TestSeqNumVerifiedSafeNonFIFO is the formal headline: the naive protocol
// is *verified* safe — every reachable state of the composed system, under
// every channel behaviour (arbitrary reordering and loss, bounded
// capacity), avoids the DL-violation monitor state. This is Theorem 3.1's
// escape hatch ("pay the n headers"), proven by exhaustion in the [LT87]
// formalism for small n.
func TestSeqNumVerifiedSafeNonFIFO(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		sys, err := NewSeqNumSystem(NonFIFOKind, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Reach(sys, Violated, 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		if res.Found != nil {
			t.Fatalf("n=%d: violation reachable: %v", n, res.Found)
		}
		if !res.Exhausted {
			t.Fatalf("n=%d: space not exhausted (states=%d)", n, res.States)
		}
		if res.States < 10 {
			t.Fatalf("n=%d: suspiciously few states: %d", n, res.States)
		}
	}
}

func TestSeqNumVerifiedSafeFIFO(t *testing.T) {
	sys, err := NewSeqNumSystem(FIFOKind, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reach(sys, Violated, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found != nil || !res.Exhausted {
		t.Fatalf("FIFO: %+v", res)
	}
}

func TestSeqNumTAutomaton(t *testing.T) {
	a := NewSeqNumT(3)
	s, err := a.Init().Apply("send_msg")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Enabled(); len(got) != 1 || got[0] != "send(d0)" {
		t.Fatalf("enabled = %v", got)
	}
	// Retransmission self-loop.
	s2, err := s.Apply("send(d0)")
	if err != nil || s2.Key() != s.Key() {
		t.Fatalf("send self-loop: %v, %v", s2, err)
	}
	// Stale/future ack ignored; matching ack advances.
	s3, _ := s.Apply("recv'(a2)")
	if s3.Key() != s.Key() {
		t.Fatal("future ack should be ignored")
	}
	s4, _ := s.Apply("recv'(a0)")
	if !strings.Contains(s4.Key(), "seq=1") {
		t.Fatalf("ack should advance: %s", s4.Key())
	}
	if _, err := s.Apply("send(d1)"); err == nil {
		t.Fatal("out-of-sequence send accepted")
	}
}

func TestSeqNumRAutomaton(t *testing.T) {
	a := NewSeqNumR(3, 2)
	s, err := a.Init().Apply("recv(d0)")
	if err != nil {
		t.Fatal(err)
	}
	en := strings.Join(s.Enabled(), " ")
	if !strings.Contains(en, "receive_msg") || !strings.Contains(en, "send'(a0)") {
		t.Fatalf("enabled = %q", en)
	}
	// Stale duplicate re-acked, not delivered.
	s, _ = s.Apply("receive_msg")
	s, _ = s.Apply("send'(a0)")
	s, _ = s.Apply("recv(d0)")
	en = strings.Join(s.Enabled(), " ")
	if strings.Contains(en, "receive_msg") {
		t.Fatal("stale duplicate delivered")
	}
	if !strings.Contains(en, "send'(a0)") {
		t.Fatal("stale duplicate not re-acked")
	}
	// Future header ignored entirely.
	s2, _ := s.Apply("recv(d2)")
	if len(s2.Enabled()) != len(s.Enabled()) {
		t.Fatal("future header should be ignored")
	}
}

// --- differential tests: the three formulations agree ---

// TestDifferentialAltbitAcrossFormalisms: the bounded prover over the
// concrete endpoints and the I/O automaton reachability agree on altbit:
// broken over non-FIFO, safe over FIFO.
func TestDifferentialAltbitAcrossFormalisms(t *testing.T) {
	// Formalism 1: concrete endpoints (internal/verify).
	exp, err := verify.Run(protocol.NewAltBit(), verify.Config{MaxMessages: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Formalism 2: I/O automata.
	sys, err := NewAltBitSystem(NonFIFOKind, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	aut, err := Reach(sys, Violated, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if (exp.Verdict == verify.VerdictViolated) != (aut.Found != nil) {
		t.Fatalf("formalisms disagree on non-FIFO altbit: verify=%s ioauto=%v",
			exp.Verdict, aut.Found)
	}
	if exp.Verdict != verify.VerdictViolated {
		t.Fatal("both formalisms should find the violation")
	}

	// FIFO: both safe.
	expF, err := verify.Run(protocol.NewAltBit(), verify.Config{MaxMessages: 2, FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	sysF, err := NewAltBitSystem(FIFOKind, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	autF, err := Reach(sysF, Violated, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if expF.Verdict != verify.VerdictProved || autF.Found != nil {
		t.Fatalf("formalisms should both be safe over FIFO: verify=%s ioauto=%v",
			expF.Verdict, autF.Found)
	}
}

// TestDifferentialSeqnumAcrossFormalisms: both formulations verify the
// naive protocol safe over non-FIFO.
func TestDifferentialSeqnumAcrossFormalisms(t *testing.T) {
	exp, err := verify.Run(protocol.NewSeqNum(), verify.Config{MaxMessages: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSeqNumSystem(NonFIFOKind, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	aut, err := Reach(sys, Violated, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Verdict != verify.VerdictProved || aut.Found != nil {
		t.Fatalf("both should be safe: verify=%s ioauto=%v", exp.Verdict, aut.Found)
	}
	if !exp.Exhausted || !aut.Exhausted {
		t.Fatal("both spaces should be exhausted")
	}
}
