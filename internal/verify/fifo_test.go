package verify

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/replay"
)

// Tests for the FIFO discipline (Config.FIFO), the deadlock shape of DL3,
// and the counterexample path on the protocols the paper's contrast rests
// on.

func TestAltbitCounterexampleFound(t *testing.T) {
	rep, err := Run(protocol.NewAltBit(), Config{MaxMessages: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictViolated || rep.Property != "DL1" {
		t.Fatalf("exhaustive search must break altbit: %s (%s)", rep.Verdict, rep.Property)
	}
	// The witness must independently fail the safety checkers on replay.
	rr, err := replay.Run(rep.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if err := ioa.CheckSafety(rr.Trace); err == nil {
		t.Fatalf("witness passes the checkers:\n%s", rr.Trace)
	}
}

func TestAltbitCounterexampleIsShort(t *testing.T) {
	// BFS returns a shortest witness; the known-minimal attack needs two
	// messages, a duplicate send of d0 and a replay: 12 driver operations.
	rep, err := Run(protocol.NewAltBit(), Config{MaxMessages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictViolated {
		t.Fatal("no counterexample")
	}
	if rep.WitnessOps == 0 || rep.WitnessOps > 12 {
		t.Fatalf("witness has %d ops, want a short non-empty schedule", rep.WitnessOps)
	}
}

func TestAltbitCounterexampleShape(t *testing.T) {
	rep, err := Run(protocol.NewAltBit(), Config{MaxMessages: 2})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := replay.Run(rep.Witness)
	if err != nil {
		t.Fatal(err)
	}
	// The attack replays a stale d0 copy: the trace shows d0 received at
	// least twice and one message more delivered than submitted.
	if s := rr.Trace.String(); strings.Count(s, "receive_pkt^t→r(d0") < 2 {
		t.Fatalf("expected a replayed d0 in the witness:\n%s", s)
	}
	if c := rr.Trace.Count(); c.RM != c.SM+1 {
		t.Fatalf("witness should have rm = sm+1, got sm=%d rm=%d", c.SM, c.RM)
	}
}

func TestSeqnumSafeWithinBounds(t *testing.T) {
	rep, err := Run(protocol.NewSeqNum(), Config{MaxMessages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictProved || !rep.Exhausted {
		t.Fatalf("seqnum should be PROVED: %s, exhausted=%v", rep.Verdict, rep.Exhausted)
	}
	if rep.States < 50 {
		t.Fatalf("suspiciously few states explored: %d", rep.States)
	}
}

func TestCntLinearSafeWithinBounds(t *testing.T) {
	rep, err := Run(protocol.NewCntLinear(), Config{MaxMessages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictProved || !rep.Exhausted {
		t.Fatalf("cntlinear should be PROVED: %s (%v)", rep.Verdict, rep.Failures)
	}
}

func TestCntKSafeWithinBounds(t *testing.T) {
	rep, err := Run(protocol.NewCntK(3), Config{MaxMessages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictProved || !rep.Exhausted {
		t.Fatalf("cntk3 should be PROVED: %s (%v)", rep.Verdict, rep.Failures)
	}
}

func TestCheatCounterexampleFound(t *testing.T) {
	rep, err := Run(protocol.NewCheat(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictViolated || !rep.WitnessConfirmed {
		t.Fatalf("exhaustive search should break cheat(1): %s after %d states", rep.Verdict, rep.States)
	}
}

func TestLivelockNoSafetyViolation(t *testing.T) {
	// The livelock protocol never delivers anything: safe (vacuously), just
	// not live. The only finding may be DL3.
	rep, err := Run(protocol.NewLivelock(), Config{MaxMessages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exhausted || rep.Property != "DL3" {
		t.Fatalf("livelock is safe but not live: %s (%s), exhausted=%v", rep.Verdict, rep.Property, rep.Exhausted)
	}
}

// TestAllowDropExploresMoreStates: exploring in-transit drops at every
// configuration (NoPOR) instead of lazily at the cap widens the space, and
// loss alone never breaks a correct protocol.
func TestAllowDropExploresMoreStates(t *testing.T) {
	lazy, err := Run(protocol.NewSeqNum(), Config{MaxMessages: 1})
	if err != nil {
		t.Fatal(err)
	}
	eager, err := Run(protocol.NewSeqNum(), Config{MaxMessages: 1, NoPOR: true})
	if err != nil {
		t.Fatal(err)
	}
	if eager.States <= lazy.States {
		t.Fatalf("eager drops should widen the space: %d vs %d", eager.States, lazy.States)
	}
	if eager.Verdict != VerdictProved {
		t.Fatalf("loss alone must not break a correct protocol: %s", eager.Verdict)
	}
}

func TestMaxStatesTruncates(t *testing.T) {
	rep, err := Run(protocol.NewSeqNum(), Config{MaxStates: 50})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exhausted || rep.Verdict != VerdictBudget {
		t.Fatalf("tiny MaxStates should not exhaust the space: %s", rep.Verdict)
	}
}

func TestDefaultsApplied(t *testing.T) {
	rep, err := Run(protocol.NewAltBit(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Occupancy != 2 || rep.MaxMessages != 3 || rep.MaxStates != 1<<18 {
		t.Fatalf("defaults = occupancy %d, messages %d, states %d", rep.Occupancy, rep.MaxMessages, rep.MaxStates)
	}
	if rep.Verdict != VerdictViolated {
		t.Fatalf("default bounds should break altbit: %s", rep.Verdict)
	}
}

func TestTransitionCountsReported(t *testing.T) {
	rep, err := Run(protocol.NewSeqNum(), Config{MaxMessages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Edges == 0 || rep.States == 0 {
		t.Fatalf("counters not reported: %d states, %d edges", rep.States, rep.Edges)
	}
	if rep.Edges < rep.States-1 {
		t.Fatalf("edges (%d) < states-1 (%d)", rep.Edges, rep.States-1)
	}
}

func TestExploreDeterministic(t *testing.T) {
	for _, fifo := range []bool{false, true} {
		a, err := Run(protocol.NewAltBit(), Config{FIFO: fifo})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(protocol.NewAltBit(), Config{FIFO: fifo})
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("fifo=%v: runs differ:\n%s\nvs\n%s", fifo, a, b)
		}
	}
}

// --- FIFO discipline: reordering is the decisive property ---

// TestAltbitSafeOverFIFO: over a lossy FIFO channel the alternating bit
// protocol is correct [BSW69]; the default bounds that break it over
// non-FIFO are PROVED here. Its DLStatus declaration describes the non-FIFO
// channel, so the FIFO verdict is OBSERVED, not a contradiction.
func TestAltbitSafeOverFIFO(t *testing.T) {
	rep, err := Run(protocol.NewAltBit(), Config{FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictProved || !rep.Exhausted {
		t.Fatalf("altbit must be PROVED over FIFO: %s (%v)", rep.Verdict, rep.Failures)
	}
	if rep.Check != CheckObserved || len(rep.Failures) != 0 {
		t.Fatalf("check = %s (%v), want OBSERVED", rep.Check, rep.Failures)
	}
}

func TestAltbitFIFOvsNonFIFOContrast(t *testing.T) {
	fifo, err := Run(protocol.NewAltBit(), Config{MaxMessages: 2, FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	nonfifo, err := Run(protocol.NewAltBit(), Config{MaxMessages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fifo.Verdict != VerdictProved {
		t.Fatalf("FIFO: altbit should be PROVED, got %s", fifo.Verdict)
	}
	if nonfifo.Verdict != VerdictViolated {
		t.Fatalf("non-FIFO: altbit should be VIOLATED, got %s", nonfifo.Verdict)
	}
}

func TestSeqnumSafeOverFIFOToo(t *testing.T) {
	rep, err := Run(protocol.NewSeqNum(), Config{FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictProved || !rep.Exhausted {
		t.Fatalf("seqnum over FIFO: %s", rep.Verdict)
	}
}

func TestFIFOSpaceSmallerThanNonFIFO(t *testing.T) {
	// The FIFO discipline has fewer delivery choices, so at equal bounds,
	// for a protocol safe under both, it explores fewer states than the
	// unreduced non-FIFO exploration.
	nf, err := Run(protocol.NewSeqNum(), Config{NoPOR: true})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Run(protocol.NewSeqNum(), Config{FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	if f.States >= nf.States {
		t.Fatalf("FIFO states %d should be < non-FIFO states %d", f.States, nf.States)
	}
}

func TestCountingProtocolsRunUnderLinkGenie(t *testing.T) {
	// Counting protocols consult a genie over whichever channel the run
	// explores; they must stay safe under both disciplines.
	for _, fifo := range []bool{false, true} {
		rep, err := Run(protocol.NewCntLinear(), Config{FIFO: fifo})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != VerdictProved {
			t.Fatalf("cntlinear under fifo=%v: %s (%s) %v", fifo, rep.Verdict, rep.Detail, rep.Failures)
		}
	}
}

func TestFIFOForcesPOROff(t *testing.T) {
	rep, err := Run(protocol.NewSeqNum(), Config{FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.POR || rep.PORReason != "FIFO discipline" {
		t.Fatalf("por = %v (%q), want off for the FIFO discipline", rep.POR, rep.PORReason)
	}
	if !strings.Contains(rep.String(), "por:        off (FIFO discipline)\n") {
		t.Fatalf("report does not name the FIFO reason:\n%s", rep)
	}
}

func TestFIFOWithStabilizeRejected(t *testing.T) {
	if _, err := Run(protocol.NewStabDL(2), Config{FIFO: true, Stabilize: true}); err == nil {
		t.Fatal("FIFO with Stabilize accepted")
	}
}

// TestFIFOViolationOfDeclaredSoundFails: every FIFO execution is also a
// non-FIFO execution, so a FIFO violation refutes a DL-sound declaration
// even though other FIFO verdicts are only OBSERVED.
func TestFIFOViolationOfDeclaredSoundFails(t *testing.T) {
	rep := &Report{Verdict: VerdictViolated, Property: "DL1", WitnessConfirmed: true, FIFO: true}
	judge(rep, protocol.NewSeqNum())
	if rep.Check != CheckFail {
		t.Fatalf("check = %s, want FAIL", rep.Check)
	}
	rep = &Report{Verdict: VerdictViolated, Property: "DL1", WitnessConfirmed: true, FIFO: true}
	judge(rep, protocol.NewAltBit())
	if rep.Check != CheckObserved {
		t.Fatalf("attackable protocol: check = %s, want OBSERVED", rep.Check)
	}
}

// --- deadlock (DL3) detection ---

// TestDeadlockDetectionBlindAck: the distilled stale-ack liveness bug, a
// transmitter that treats ANY acknowledgement as confirming the current
// message. A duplicate ack from message 0 falsely confirms message 1 after
// its only data copy is lost; the channels drain and delivery is stuck for
// good. The FIFO discipline keeps the (correct) altbit receiver safe,
// isolating the liveness failure.
func TestDeadlockDetectionBlindAck(t *testing.T) {
	rep, err := Run(blindAck{altbit: true}, Config{MaxMessages: 2, FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	assertDeadlock(t, rep)
}

// TestDeadlockDetectedOverNonFIFO: the same defect over sequence numbers
// stays safe on the non-FIFO channel and deadlocks there too. The DL3 pass
// once certified only pumped cycles, and this protocol — whose stranded
// candidates all stall rather than cycle — was PROVED.
func TestDeadlockDetectedOverNonFIFO(t *testing.T) {
	rep, err := Run(blindAck{}, Config{MaxMessages: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertDeadlock(t, rep)
}

func assertDeadlock(t *testing.T, rep *Report) {
	t.Helper()
	if rep.Verdict != VerdictViolated || rep.Property != "DL3" {
		t.Fatalf("expected a DL3 deadlock, got %s (%s) %v", rep.Verdict, rep.Property, rep.Failures)
	}
	if !strings.HasPrefix(rep.Detail, "deadlock: ") {
		t.Fatalf("detail = %q", rep.Detail)
	}
	if rep.Check != CheckObserved {
		t.Fatalf("check = %s, want OBSERVED (no declaration)", rep.Check)
	}
	// The witness is a complete schedule: replayed against the protocol, it
	// reproduces without divergence, stays safe and strands a message.
	rr, err := replay.RunAs(rep.Witness, blindAck{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Divergence != nil || rr.Verdict != nil || rr.DL3 == nil {
		t.Fatalf("deadlock witness replay: divergence %v, safety %v, dl3 %v", rr.Divergence, rr.Verdict, rr.DL3)
	}
}

func TestDeadlockNotFlaggedForCorrectProtocols(t *testing.T) {
	for _, fifo := range []bool{false, true} {
		for _, p := range []protocol.Protocol{protocol.NewSeqNum(), protocol.NewAltBit()} {
			rep, err := Run(p, Config{MaxMessages: 2, FIFO: fifo})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Property == "DL3" {
				t.Fatalf("%s fifo=%v: spurious DL3: %s", p.Name(), fifo, rep.Detail)
			}
		}
	}
}

// TestDeadlockNotFlaggedWhenMerelySendCapped: the livelock transmitter is
// always busy, so its stranded message is a livelock (a pumped cycle), never
// a deadlock.
func TestDeadlockNotFlaggedWhenMerelySendCapped(t *testing.T) {
	rep, err := Run(protocol.NewLivelock(), Config{MaxMessages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(rep.Detail, "deadlock") {
		t.Fatalf("busy livelock flagged as deadlock: %s", rep.Detail)
	}
	if rep.Witness == nil || rep.Witness.Meta[replay.MetaLivelockPump] == "" {
		t.Fatalf("livelock not certified by a pumped cycle: %s (%s)", rep.Verdict, rep.Detail)
	}
}

// blindAck pairs a correct receiver (altbit's, or seqnum's) with a
// transmitter whose only defect is confirming the current message on ANY
// ack header — the distilled form of sequence-space ack aliasing. It is not
// in replay's name registry, so its witnesses confirm only because the
// verifier replays the instance it explored.
type blindAck struct{ altbit bool }

func (b blindAck) Name() string {
	if b.altbit {
		return "blindack-altbit"
	}
	return "blindack-seqnum"
}
func (blindAck) HeaderBound() (int, bool) { return 0, false }
func (b blindAck) New(_, _ channel.Genie) (protocol.Transmitter, protocol.Receiver) {
	if b.altbit {
		_, r := protocol.NewAltBit().New(nil, nil)
		return &blindAckT{mod: 2}, r
	}
	_, r := protocol.NewSeqNum().New(nil, nil)
	return &blindAckT{}, r
}

type blindAckT struct {
	mod     int // header sequence modulus; 0 = unbounded
	seq     int
	busy    bool
	payload string
}

func (t *blindAckT) SendMsg(payload string) { t.busy, t.payload = true, payload }

func (t *blindAckT) DeliverPkt(p ioa.Packet) {
	if !t.busy || !strings.HasPrefix(p.Header, "a") {
		return
	}
	// The bug: no sequence check.
	t.busy, t.payload = false, ""
	t.seq++
	if t.mod > 0 {
		t.seq %= t.mod
	}
}

func (t *blindAckT) NextPkt() (ioa.Packet, bool) {
	if !t.busy {
		return ioa.Packet{}, false
	}
	return ioa.Packet{Header: "d" + strconv.Itoa(t.seq), Payload: t.payload}, true
}

func (t *blindAckT) Busy() bool { return t.busy }

func (t *blindAckT) Clone() protocol.Transmitter { c := *t; return &c }

func (t *blindAckT) StateKey() string {
	return "blindAckT{seq=" + strconv.Itoa(t.seq) + " busy=" + strconv.FormatBool(t.busy) +
		" payload=" + strconv.Quote(t.payload) + "}"
}

func (t *blindAckT) StateSize() int { return 2 + len(t.payload) }
