package nonfifo

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"
)

// The facade tests exercise the library exactly as a downstream user would:
// everything through the public package, nothing through internal paths.

func TestQuickstartFlow(t *testing.T) {
	r := NewRunner(Config{
		Protocol:    SeqNum(),
		DataPolicy:  Probabilistic(0.25, rand.New(rand.NewSource(1))),
		RecordTrace: true,
	})
	res := r.Run(10)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := CheckValid(res.Trace); err != nil {
		t.Fatal(err)
	}
	if res.Metrics.HeadersUsed < 10 {
		t.Fatalf("seqnum headers = %d", res.Metrics.HeadersUsed)
	}
}

func TestProtocolsRegistry(t *testing.T) {
	ps := Protocols()
	for _, name := range []string{"altbit", "seqnum", "cntlinear", "cntexp"} {
		if _, ok := ps[name]; !ok {
			t.Fatalf("registry missing %s", name)
		}
	}
}

func TestAttackFlow(t *testing.T) {
	r := NewRunner(Config{
		Protocol:    AltBit(),
		DataPolicy:  DelayFirst(1),
		RecordTrace: true,
	})
	if err := r.RunMessage("m0"); err != nil {
		t.Fatal(err)
	}
	if err := r.RunMessage("m1"); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplaySearch(r, ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cert == nil {
		t.Fatal("altbit should be broken via the public API too")
	}
	if err := rep.Cert.Recheck(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Cert.String(), "DL1") {
		t.Fatal("certificate should mention DL1")
	}
}

func TestLivenessCertificationFlow(t *testing.T) {
	// Record a benign-looking run of the broken livelock protocol, certify
	// the livelock through the facade, and verify the pumped certificate
	// replays clean of safety violations while still failing DL3.
	l := NewTraceLog()
	r := NewRunner(Config{
		Protocol:    Livelock(),
		DataPolicy:  Reliable(),
		AckPolicy:   Reliable(),
		RecordTrace: true,
		TraceLog:    l,
	})
	r.SubmitMsg("m0")
	r.StepTransmit()

	out, err := CloseDrive(l, DriveReliable, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.CycleFound || out.DL3 == nil {
		t.Fatalf("closing drive found no livelock cycle: %+v", out)
	}
	cert, err := CertifyLivelock(l, CertifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Replay(cert.Pumped(3))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Verdict != nil || rr.DL3 == nil || rr.Divergence != nil {
		t.Fatalf("pumped certificate: verdict=%v dl3=%v divergence=%v",
			rr.Verdict, rr.DL3, rr.Divergence)
	}
	sr, err := ShrinkLiveness(l, DriveReliable)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Property != "DL3" || sr.FinalOps != 1 {
		t.Fatalf("liveness shrink: property %s, %d ops", sr.Property, sr.FinalOps)
	}
}

func TestBoundnessFlow(t *testing.T) {
	samples, err := MeasurePf(CntLinear(), []int{0, 8}, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || samples[1].Cost < 8 {
		t.Fatalf("samples = %+v", samples)
	}
	r, err := BuildInTransit(SeqNum(), 4, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	if r.ChData.InTransit() < 4 {
		t.Fatal("BuildInTransit under-delivered")
	}
	r.SubmitMsg("x")
	cost, err := ClosingCost(r, 1<<18)
	if err != nil || cost < 1 {
		t.Fatalf("ClosingCost = %d, %v", cost, err)
	}
}

func TestPumpFlow(t *testing.T) {
	r := NewRunner(Config{Protocol: Livelock()})
	r.SubmitMsg("m")
	rep, err := Pump(r, 1000)
	if err != nil || !rep.Pumped {
		t.Fatalf("pump = %+v, %v", rep, err)
	}
}

func TestHeaderBudgetFlow(t *testing.T) {
	rep, err := HeaderBudget(Cheat(1), 3, 3, ReplayConfig{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replay.Cert == nil {
		t.Fatal("cheat(1) should be broken")
	}
}

func TestMeasureMfFlow(t *testing.T) {
	samples, err := MeasureMf(AltBit(), 5, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("samples = %+v", samples)
	}
}

func TestRunExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	var buf bytes.Buffer
	if err := RunExperiments(&buf, Quick); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "== E6:") {
		t.Fatal("experiment output incomplete")
	}
}

func TestConstantsExported(t *testing.T) {
	if TtoR == RtoT {
		t.Fatal("direction constants collide")
	}
	if DeliverNow == Delay || Delay == Drop {
		t.Fatal("decision constants collide")
	}
}

func TestExploreFlow(t *testing.T) {
	rep, err := Verify(AltBit(), VerifyConfig{MaxMessages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "VIOLATED" || !rep.WitnessConfirmed {
		t.Fatalf("prover should break altbit: %s %v", rep.Verdict, rep.Failures)
	}
	rr, err := Replay(rep.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSafety(rr.Trace); err == nil {
		t.Fatal("witness passes the checkers")
	}
	safe, err := Verify(SeqNum(), VerifyConfig{MaxMessages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if safe.Verdict != "PROVED" || !safe.Exhausted {
		t.Fatalf("seqnum should be PROVED: %s", safe.Verdict)
	}
	fifo, err := Verify(AltBit(), VerifyConfig{FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	if fifo.Verdict != "PROVED" || fifo.Check != "OBSERVED" {
		t.Fatalf("altbit over FIFO: %s/%s, want PROVED/OBSERVED", fifo.Verdict, fifo.Check)
	}
}

func TestSlidingWindowFlow(t *testing.T) {
	p := SlidingWindow(2, 1)
	if k, bounded := p.HeaderBound(); !bounded || k != 4 {
		t.Fatalf("HeaderBound = %d,%t", k, bounded)
	}
	rep, err := Verify(p, VerifyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "VIOLATED" || !rep.WitnessConfirmed {
		t.Fatalf("finite sequence space should be breakable: %s %v", rep.Verdict, rep.Failures)
	}
	safe, err := Verify(SlidingWindow(0, 2), VerifyConfig{MaxMessages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if safe.Verdict != "PROVED" {
		t.Fatalf("unbounded sequence space should be PROVED: %s", safe.Verdict)
	}
}

// TestTransportAuditFlow: the transport protocols carry their mod-S
// quotient and Bounds themselves, so auditing the value SlidingWindow or
// GoBackN returns certifies a finite sequence space — the same report
// `nfvet audit <name>` prints.
func TestTransportAuditFlow(t *testing.T) {
	for _, tc := range []struct {
		p      Protocol
		states int
	}{
		{SlidingWindow(4, 2), 5856},
		{GoBackN(4, 2), 1640},
		{GoBackN(8, 4), 10060},
	} {
		rep := AuditProtocol(tc.p, AuditConfig{})
		if rep.States != tc.states || !rep.Exhausted || rep.Verdict != "CERTIFIED" {
			t.Errorf("%s: %d states (exhausted %v), verdict %s; want %d, exhausted, CERTIFIED",
				tc.p.Name(), rep.States, rep.Exhausted, rep.Verdict, tc.states)
		}
	}
}

// TestAdaptTransportPassThrough pins the deprecated AdaptTransport: the
// transport protocols come back unchanged, anything else is an error.
func TestAdaptTransportPassThrough(t *testing.T) {
	for _, p := range []Protocol{SlidingWindow(4, 2), GoBackN(0, 2)} {
		got, err := AdaptTransport(p)
		if err != nil || got != p {
			t.Errorf("AdaptTransport(%s) = %v, %v; want the protocol unchanged", p.Name(), got, err)
		}
	}
	if _, err := AdaptTransport(AltBit()); err == nil {
		t.Error("AdaptTransport(altbit) succeeded; want an error for non-transport protocols")
	}
}

// renamed wraps a protocol under a name outside replay's registry, the way
// a library user's own protocol arrives at Verify.
type renamed struct{ Protocol }

func (renamed) Name() string { return "my-altbit" }

// TestVerifyUnregisteredProtocol: witnesses are confirmed against the
// instance Verify was given, so a protocol no registry knows gets a
// confirmed witness rather than a FAIL from an unresolvable name.
func TestVerifyUnregisteredProtocol(t *testing.T) {
	rep, err := Verify(renamed{AltBit()}, VerifyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "VIOLATED" || !rep.WitnessConfirmed || rep.Check == "FAIL" {
		t.Fatalf("got %s confirmed=%v check=%s failures=%v", rep.Verdict, rep.WitnessConfirmed, rep.Check, rep.Failures)
	}
	if rep.Witness.Meta["protocol"] != "my-altbit" {
		t.Fatalf("witness names protocol %q", rep.Witness.Meta["protocol"])
	}
}

func TestInductionFlow(t *testing.T) {
	rep, err := Induction(AltBit(), 2, 10, ReplayConfig{MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Replay.Cert == nil {
		t.Fatalf("induction should break altbit: %+v", rep)
	}
}

func TestNetFlowOverUDP(t *testing.T) {
	pair, err := NewLoopbackPair(SeqNum(), func(c net.PacketConn) net.PacketConn {
		return NewChaosConn(c, ChaosConfig{DropProb: 0.2, HoldProb: 0.2, Seed: 9})
	}, WithResendInterval(500*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	for i := 0; i < 5; i++ {
		if err := pair.Sender.Send(fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pair.Sender.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		select {
		case got := <-pair.Receiver.Out():
			if got != fmt.Sprintf("m%d", i) {
				t.Fatalf("delivery %d = %q", i, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("missing delivery %d", i)
		}
	}
}

func TestPacketCodecRoundTrip(t *testing.T) {
	p := Packet{Header: "d7", Payload: "data"}
	got, err := DecodePacket(EncodePacket(p))
	if err != nil || got != p {
		t.Fatalf("round trip: %v, %v", got, err)
	}
}

func TestFormalLayerFlow(t *testing.T) {
	sys, err := NewAltBitSystem(NonFIFOChannel, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReachAutomaton(sys, AutomatonViolated, 1<<20)
	if err != nil || res.Found == nil {
		t.Fatalf("reach: %+v, %v", res, err)
	}
	tr, err := AutomatonWitnessTrace(res.Found)
	if err != nil {
		t.Fatal(err)
	}
	if CheckSafety(tr) == nil {
		t.Fatal("witness should fail the checkers")
	}
	safe, err := NewSeqNumSystem(NonFIFOChannel, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := ReachAutomaton(safe, AutomatonViolated, 1<<22)
	if err != nil || sres.Found != nil || !sres.Exhausted {
		t.Fatalf("seqnum verification: %+v, %v", sres, err)
	}
	if _, err := ComposeAutomata("empty"); err == nil {
		t.Fatal("empty composition accepted")
	}
	if ActionInput == ActionOutput || ActionOutput == ActionInternal {
		t.Fatal("class constants collide")
	}
}

// TestCapstoneMatrix runs every safe protocol in the library — data link
// and transport, bounded and unbounded headers — against a grid of channel
// behaviours, entirely through the public API, and validates every run
// against both checker formulations' facade entry points.
func TestCapstoneMatrix(t *testing.T) {
	protocols := []Protocol{
		SeqNum(),
		CntLinear(),
		CntExp(),
		CntK(3),
		SlidingWindow(0, 3),
		GoBackN(0, 2),
	}
	policies := []struct {
		name string
		mk   func(seed int64) Policy
	}{
		{"reliable", func(int64) Policy { return Reliable() }},
		{"lossy", func(int64) Policy { return DropEvery(3) }},
		{"delaying", func(int64) Policy { return DelayFirst(5) }},
		{"probabilistic", func(seed int64) Policy {
			return Probabilistic(0.25, rand.New(rand.NewSource(seed)))
		}},
	}
	for _, p := range protocols {
		for _, pol := range policies {
			p, pol := p, pol
			t.Run(p.Name()+"/"+pol.name, func(t *testing.T) {
				r := NewRunner(Config{
					Protocol:    p,
					DataPolicy:  pol.mk(1),
					AckPolicy:   pol.mk(2),
					RecordTrace: true,
				})
				const n = 6
				for i := 0; i < n; i++ {
					r.SubmitMsg(fmt.Sprintf("cap-%d", i))
				}
				if err := r.RunToIdle(); err != nil {
					t.Fatal(err)
				}
				res := r.Result()
				if len(res.Delivered) != n {
					t.Fatalf("delivered %d of %d", len(res.Delivered), n)
				}
				for i, d := range res.Delivered {
					if d != fmt.Sprintf("cap-%d", i) {
						t.Fatalf("order broken: %v", res.Delivered)
					}
				}
				if err := CheckValid(res.Trace); err != nil {
					t.Fatalf("trace invalid: %v", err)
				}
			})
		}
	}
}
