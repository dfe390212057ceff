package stabilize

import (
	"errors"
	"strconv"
	"testing"

	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestEnumerateStabDL(t *testing.T) {
	p := protocol.NewStabDL(2)
	seeds := Enumerate(p, 1)
	// 3 transmitter states × 3 receiver states × (1 empty + 2 singleton)
	// data poisons × (1 + 2) ack poisons.
	if len(seeds) != 81 {
		t.Fatalf("stabdl2 seeds = %d, want 81", len(seeds))
	}
	if !seeds[0].Clean() {
		t.Fatalf("seed 0 = %v, want clean", seeds[0])
	}
	keys := make(map[string]bool, len(seeds))
	for _, s := range seeds {
		k := s.Key()
		if keys[k] {
			t.Fatalf("duplicate seed key %q", k)
		}
		keys[k] = true
	}
}

func TestEnumerateMaxPoisonGrowsMultisets(t *testing.T) {
	p := protocol.NewStabDL(2)
	// maxPoison 2 over a 2-packet alphabet: 1 + 2 + 3 = 6 multisets per
	// channel; 3 × 3 × 6 × 6 = 324.
	if got := len(Enumerate(p, 2)); got != 324 {
		t.Fatalf("stabdl2 seeds at maxPoison=2: %d, want 324", got)
	}
}

func TestEnumerateNonCorruptible(t *testing.T) {
	seeds := Enumerate(protocol.NewSeqNum(), 2)
	if len(seeds) != 1 || !seeds[0].Clean() {
		t.Fatalf("non-Corruptible protocol seeds = %v, want single clean", seeds)
	}
}

func TestAmnesty(t *testing.T) {
	pkt := ioa.Packet{Header: "d0", Payload: "z"}
	cases := []struct {
		c    Corruption
		occ  int
		want int
	}{
		{Corruption{}, 2, 0},
		{Corruption{Data: []ioa.Packet{pkt}}, 2, 1},
		{Corruption{Data: []ioa.Packet{pkt, pkt}, Ack: []ioa.Packet{{Header: "a0"}}}, 2, 3},
		{Corruption{TIdx: 1}, 2, 3},
		{Corruption{TIdx: 1, RIdx: 2}, 3, 8},
	}
	for _, tc := range cases {
		if got := Amnesty(tc.c, tc.occ); got != tc.want {
			t.Errorf("Amnesty(%v, occ=%d) = %d, want %d", tc.c, tc.occ, got, tc.want)
		}
	}
}

func TestClassify(t *testing.T) {
	payloads := []string{"m0", "m1", "m2", "m3"}
	at := func(i int) string { return payloads[i] }

	kind, charge, f, lost := Classify("m0", at, 0, 0, 4)
	if kind != StepProgress || charge != 0 || f != 1 || lost != 0 {
		t.Fatalf("progress: got %v charge=%d f=%d lost=%b", kind, charge, f, lost)
	}
	// Skip from frontier 0 straight to m2: charges the stranded window m0,m1.
	kind, charge, f, lost = Classify("m2", at, 0, 0, 4)
	if kind != StepSkip || charge != 2 || f != 3 || lost != 0b11 {
		t.Fatalf("skip: got %v charge=%d f=%d lost=%b", kind, charge, f, lost)
	}
	// A skipped message arriving late is a DL2 fault and leaves the lost set.
	kind, charge, f, lost = Classify("m1", at, 3, 0b11, 4)
	if kind != StepLate || charge != 1 || f != 3 || lost != 0b01 {
		t.Fatalf("late: got %v charge=%d f=%d lost=%b", kind, charge, f, lost)
	}
	if StepLate.Property() != "DL2" {
		t.Fatalf("StepLate property = %q, want DL2", StepLate.Property())
	}
	// A delivered message arriving again is a duplicate.
	kind, charge, _, _ = Classify("m1", at, 3, 0, 4)
	if kind != StepDup || charge != 1 {
		t.Fatalf("dup: got %v charge=%d", kind, charge)
	}
	// Unknown payloads are garbage.
	kind, charge, _, _ = Classify("z", at, 0, 0, 4)
	if kind != StepGarbage || charge != 1 {
		t.Fatalf("garbage: got %v charge=%d", kind, charge)
	}
}

func msgEvent(kind ioa.Kind, id int, payload string) ioa.Event {
	return ioa.Event{Kind: kind, Msg: ioa.Message{ID: id, Payload: payload}}
}

func TestJudgeTraceLateArrivalIsDL2(t *testing.T) {
	tr := ioa.Trace{
		msgEvent(ioa.SendMsg, 0, "m0"),
		msgEvent(ioa.SendMsg, 1, "m1"),
		msgEvent(ioa.ReceiveMsg, 0, "m1"), // skip over m0: 1 fault
		msgEvent(ioa.ReceiveMsg, 1, "m0"), // late arrival: DL2, 1 fault
	}
	j := JudgeTrace(tr, 1)
	if j.Charges != 2 || j.Violation == nil || j.Violation.Property != "DL2" {
		t.Fatalf("judgment = charges %d violation %v, want 2 charges + DL2", j.Charges, j.Violation)
	}
	if JudgeTrace(tr, 2).Violation != nil {
		t.Fatalf("amnesty 2 should forgive both faults")
	}
}

func TestJudgeQuiescentChargesStranded(t *testing.T) {
	tr := ioa.Trace{
		msgEvent(ioa.SendMsg, 0, "m0"),
		msgEvent(ioa.SendMsg, 1, "m1"),
		msgEvent(ioa.ReceiveMsg, 0, "m0"),
		// m1 confirmed (the run is quiescent) but never delivered.
	}
	if j := JudgeTrace(tr, 0); j.Violation != nil {
		t.Fatalf("prefix judge charged an in-flight message: %v", j.Violation)
	}
	j := JudgeQuiescent(tr, 0)
	if j.Stranded != 1 || j.Violation == nil || j.Violation.Property != "DL3" {
		t.Fatalf("quiescent judgment = stranded %d violation %v, want 1 stranded + DL3", j.Stranded, j.Violation)
	}
}

// newRun builds a trace-recording runner over reliable channels with the
// positional payloads the amnesty judge resolves ("m<i>").
func newRun(p protocol.Protocol, tlog *trace.Log) *sim.Runner {
	return sim.NewRunner(sim.Config{
		Protocol:    p,
		StepBudget:  512,
		RecordTrace: true,
		TraceLog:    tlog,
		Payload:     func(i int) string { return "m" + strconv.Itoa(i) },
	})
}

// A clean start applied through Apply is a no-op, and a clean reliable run
// owes the amnesty judge nothing: zero charges against a zero budget.
func TestCleanSeedConvergesWithZeroCharges(t *testing.T) {
	for _, p := range []protocol.Protocol{protocol.NewAltBit(), protocol.NewStabDL(2), protocol.NewStabNaive()} {
		run := newRun(p, nil)
		if err := Apply(run, Corruption{}); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		res := run.Run(3)
		if res.Err != nil {
			t.Fatalf("%s: clean run: %v", p.Name(), res.Err)
		}
		amnesty := Amnesty(Corruption{}, 2)
		j := JudgeQuiescent(res.Trace, amnesty)
		if j.Violation != nil || j.Charges != 0 || amnesty != 0 {
			t.Errorf("%s clean seed: violation=%v charges=%d amnesty=%d, want clean run",
				p.Name(), j.Violation, j.Charges, amnesty)
		}
	}
}

// stabnaive's forged-ack seed wedges it for good: the poison ack k0
// completes m0 before the receiver ever sees it, so the transmitter moves
// to round 1 while the receiver still waits for round 0 and silently
// ignores every c1 retransmission. The stall must certify as a pumped
// livelock whose log starts from the corrupted configuration (KindPoison
// op first) and replays with zero divergence to the same DL3 verdict — the
// path `nfvet verify -stabilize`'s DL3 pass takes for corrupted starts.
func TestStabNaiveDiverges(t *testing.T) {
	p := protocol.NewStabNaive()
	seed := Corruption{Ack: []ioa.Packet{{Header: "k0"}}}
	if got := seed.Key(); got != "t0.r0|d:|a:k0" {
		t.Fatalf("seed key = %q", got)
	}
	tlog := trace.NewLog(nil)
	run := newRun(p, tlog)
	if err := Apply(run, seed); err != nil {
		t.Fatal(err)
	}
	run.SubmitMsg("m0")
	if err := run.DeliverStale(ioa.RtoT, seed.Ack[0]); err != nil {
		t.Fatalf("delivering the poison ack: %v", err)
	}
	// The forged ack already confirmed m0; the next message never will.
	if err := run.RunToIdle(); err != nil {
		t.Fatalf("m0 after the forged ack: %v", err)
	}
	run.SubmitMsg("m1")
	if err := run.RunToIdle(); !errors.Is(err, sim.ErrStalled) {
		t.Fatalf("RunToIdle = %v, want a stall", err)
	}

	cert, err := replay.CertifyLivelock(tlog, replay.CertifyOptions{})
	if err != nil {
		t.Fatalf("certifying the stall: %v", err)
	}
	if cert.DL3 == nil || cert.DL3.Property != "DL3" {
		t.Fatalf("certificate violation = %v, want DL3", cert.DL3)
	}
	pumped := cert.Pumped(3)
	poisoned := false
	for _, e := range pumped.Events {
		if e.Kind.IsOp() {
			poisoned = e.Kind == trace.KindPoison
			break
		}
	}
	if !poisoned {
		t.Fatalf("pumped certificate does not start from the poisoned channel")
	}
	rr, err := replay.Run(pumped)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Divergence != nil {
		t.Fatalf("pumped certificate diverged on replay: %v", rr.Divergence)
	}
	if rr.Verdict != nil || rr.DL3 == nil || !rr.VerdictMatches {
		t.Fatalf("replay re-check: safety %v, DL3 %v, matches %v; want safety-clean DL3",
			rr.Verdict, rr.DL3, rr.VerdictMatches)
	}
}

// outcome is one corrupted start driven through the recovery schedule.
type outcome struct {
	amnesty int
	// judgment is the amnesty judge's verdict on a run that went idle (nil
	// for a stall); violation is the divergence (nil when converged).
	judgment  *Judgment
	violation *ioa.Violation
	stalled   bool
	// witness is the replayable diverging run: the pumped livelock
	// certificate for a stall, the replayed log for an over-amnesty fault.
	// confirmed reports that replay re-drove it to the same verdict.
	witness   *trace.Log
	confirmed bool
}

// drive runs one corrupted start through the canonical recovery schedule
// over reliable channels: the first of three probes is submitted, the
// poison packets are delivered stale while the transmitter is busy with
// it, and the remaining probes flow one by one. A stall is certified as a
// pumped livelock; an idle run is judged against the seed's amnesty, and
// an over-amnesty fault is confirmed by replaying the recorded log and
// re-judging the replayed trace. One schedule per seed exercises the
// Apply/Amnesty/judge glue end to end; exhaustive interleaving is the
// prover's job (internal/verify's stabilize tests).
func drive(t *testing.T, p protocol.Protocol, seed Corruption) outcome {
	t.Helper()
	o := outcome{amnesty: Amnesty(seed, 2)}
	tlog := trace.NewLog(nil)
	run := newRun(p, tlog)
	if err := Apply(run, seed); err != nil {
		t.Fatalf("%s seed %s: %v", p.Name(), seed, err)
	}
	for i := 0; i < 3; i++ {
		run.SubmitMsg("m" + strconv.Itoa(i))
		if i == 0 {
			for _, pkt := range seed.Data {
				if err := run.DeliverStale(ioa.TtoR, pkt); err != nil {
					t.Fatalf("%s seed %s: %v", p.Name(), seed, err)
				}
			}
			for _, pkt := range seed.Ack {
				if err := run.DeliverStale(ioa.RtoT, pkt); err != nil {
					t.Fatalf("%s seed %s: %v", p.Name(), seed, err)
				}
			}
		}
		err := run.RunToIdle()
		if err == nil {
			continue
		}
		if !errors.Is(err, sim.ErrStalled) {
			t.Fatalf("%s seed %s: %v", p.Name(), seed, err)
		}
		o.stalled = true
		o.violation = &ioa.Violation{Property: "DL3", Index: -1, Detail: err.Error()}
		// Not every stall closes into a certifiable cycle; such a stall
		// stays an unconfirmed divergence.
		if cert, cerr := replay.CertifyLivelock(tlog, replay.CertifyOptions{}); cerr == nil {
			o.witness = cert.Pumped(3)
			o.confirmed = true
		}
		return o
	}
	o.judgment = JudgeQuiescent(run.Result().Trace, o.amnesty)
	o.violation = o.judgment.Violation
	if o.violation == nil {
		return o
	}
	rr, err := replay.Run(tlog)
	if err != nil {
		t.Fatalf("%s seed %s: replaying divergence: %v", p.Name(), seed, err)
	}
	rj := JudgeQuiescent(rr.Trace, o.amnesty)
	o.witness = rr.Log
	o.confirmed = rr.Divergence == nil && rj.Violation != nil &&
		rj.Violation.Property == o.violation.Property
	return o
}

// Under the recovery schedule stabdl2 converges from every bounded
// corrupted start with its faults inside amnesty.
func TestStabDLConvergesFromEverySeed(t *testing.T) {
	p := protocol.NewStabDL(2)
	seeds := Enumerate(p, 1)
	if len(seeds) != 81 {
		t.Fatalf("stabdl2 has %d seeds, want 81", len(seeds))
	}
	for _, seed := range seeds {
		o := drive(t, p, seed)
		if o.violation != nil {
			t.Errorf("seed %s: diverged: %v", seed, o.violation)
			continue
		}
		if o.judgment.Charges > o.amnesty {
			t.Errorf("seed %s: %d charges exceed amnesty %d yet converged", seed, o.judgment.Charges, o.amnesty)
		}
	}
}

// altbit predates the stabilizing family and must be caught: a poison
// packet impersonating a data packet defeats the bare alternating bit.
func TestAltBitDiverges(t *testing.T) {
	p := protocol.NewAltBit()
	diverged := 0
	for _, seed := range Enumerate(p, 1) {
		if o := drive(t, p, seed); o.violation != nil && (o.confirmed || o.stalled) {
			diverged++
		}
	}
	if diverged == 0 {
		t.Errorf("altbit survived every corrupted seed; it should not self-stabilize")
	}
}

// arrival delivers in arrival order, so a forged early copy of a later
// message breaks convergence.
func TestArrivalDiverges(t *testing.T) {
	p := protocol.NewArrival()
	for _, seed := range Enumerate(p, 1) {
		if drive(t, p, seed).violation != nil {
			return
		}
	}
	t.Errorf("arrival converged from every seed; its forged-copy seed should diverge")
}

// An over-amnesty fault witness must re-drive bit for bit, carry a verdict
// the replay re-checker agrees with, and start from the corrupted
// configuration Apply recorded.
func TestDivergenceWitnessReplays(t *testing.T) {
	p := protocol.NewStabNaive()
	for _, seed := range Enumerate(p, 1) {
		o := drive(t, p, seed)
		if o.violation == nil || o.stalled {
			continue
		}
		if !o.confirmed {
			t.Fatalf("seed %s: %v not replay-confirmed", seed, o.violation)
		}
		rr, err := replay.Run(o.witness)
		if err != nil {
			t.Fatalf("seed %s: replaying witness: %v", seed, err)
		}
		if rr.Divergence != nil {
			t.Fatalf("seed %s: witness diverged: %v", seed, rr.Divergence)
		}
		if !rr.VerdictMatches {
			t.Fatalf("seed %s: witness verdict mismatch: recorded %v, re-checked %v/%v",
				seed, rr.RecordedVerdict, rr.Verdict, rr.DL3)
		}
		corrupted := false
		for _, e := range o.witness.Events {
			if e.Kind == trace.KindCorrupt || e.Kind == trace.KindPoison {
				corrupted = true
				break
			}
		}
		if !corrupted {
			t.Fatalf("seed %s: witness does not record the corrupted start", seed)
		}
		return
	}
	t.Fatalf("stabnaive: no seed diverged by an over-amnesty fault")
}
