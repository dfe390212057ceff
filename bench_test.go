package nonfifo

// The benchmark harness regenerates every experiment of DESIGN.md §4, one
// benchmark per table, plus micro-benchmarks of the substrate. Run:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks report the headline quantity of their table as
// a custom metric so that the paper-predicted shape is visible directly in
// benchmark output (e.g. E4 reports the fitted per-phase growth ratio).

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ioauto"
)

// --- experiment benchmarks (one per table) ---

func BenchmarkE0AltbitAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.RunE0()
		if err != nil {
			b.Fatal(err)
		}
		if res.Cert == nil {
			b.Fatal("altbit not broken")
		}
	}
}

func BenchmarkE1Boundness(b *testing.B) {
	var last core.E1Result
	for i := 0; i < b.N; i++ {
		res, err := core.RunE1()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.MaxBoundness), "boundness")
	b.ReportMetric(float64(last.KT*last.KR), "ktkr")
}

func BenchmarkE2HeaderGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.RunE2a([]int{1, 4, 16, 64}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2SpaceBlowup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.RunE2b(8, []int{0, 16, 64, 256}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2HeaderBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.RunE2c(3)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkE3InTransit(b *testing.B) {
	var rows []core.E3aRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = core.RunE3a([]int{0, 4, 16, 64, 256})
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline: cntlinear's cost at the largest level (linear in L).
	for _, r := range rows {
		if r.Protocol == "cntlinear" && r.Level == 256 {
			b.ReportMetric(float64(r.Cost), "cost@L=256")
		}
	}
}

func BenchmarkE3Cheat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.RunE3b(8, []int{1, 2})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Broken {
				b.Fatalf("cheat(%d) not broken", r.D)
			}
		}
	}
}

func BenchmarkE4ProbBlowup(b *testing.B) {
	var series []core.E4Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = core.RunE4(core.E4Params{
			Qs: []float64{0.25}, Ns: []int{4, 8, 12, 16}, Seeds: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		if s.Protocol == "cntlinear" {
			b.ReportMetric(s.PerPhaseRate, "phase-ratio")
		}
	}
}

func BenchmarkE5Tail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.RunE5(core.E5Params{Ns: []int{4, 8, 16}, Seeds: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6Tradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.RunE6(0.25, 12, i); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the substrate ---

func BenchmarkChannelSendDeliver(b *testing.B) {
	r := NewRunner(Config{Protocol: SeqNum()})
	ch := r.ChData
	p := Packet{Header: "d0", Payload: "m"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Send(p)
		if err := ch.Deliver(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckSafety(b *testing.B) {
	r := NewRunner(Config{Protocol: SeqNum(), RecordTrace: true})
	res := r.Run(50)
	if res.Err != nil {
		b.Fatal(res.Err)
	}
	tr := res.Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CheckSafety(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkProtocolMessage(b *testing.B, p Protocol, q float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRunner(Config{
			Protocol:   p,
			DataPolicy: Probabilistic(q, rng),
		})
		if res := r.Run(4); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

func BenchmarkProtocolAltbit(b *testing.B)    { benchmarkProtocolMessage(b, AltBit(), 0) }
func BenchmarkProtocolSeqnum(b *testing.B)    { benchmarkProtocolMessage(b, SeqNum(), 0.25) }
func BenchmarkProtocolCntLinear(b *testing.B) { benchmarkProtocolMessage(b, CntLinear(), 0.25) }
func BenchmarkProtocolCntExp(b *testing.B)    { benchmarkProtocolMessage(b, CntExp(), 0) }

func BenchmarkReplaySearchAltbit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := NewRunner(Config{
			Protocol:    AltBit(),
			DataPolicy:  DelayFirst(1),
			RecordTrace: true,
		})
		if err := r.RunMessage("m0"); err != nil {
			b.Fatal(err)
		}
		if err := r.RunMessage("m1"); err != nil {
			b.Fatal(err)
		}
		rep, err := ReplaySearch(r, ReplayConfig{})
		if err != nil || rep.Cert == nil {
			b.Fatalf("attack failed: %v", err)
		}
	}
}

func BenchmarkClosingCost(b *testing.B) {
	r, err := BuildInTransit(CntLinear(), 64, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.RunMessage("m"); err != nil {
		b.Fatal(err)
	}
	r.SubmitMsg("m")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ClosingCost(r, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunnerFork(b *testing.B) {
	r := NewRunner(Config{Protocol: CntLinear(), DataPolicy: DelayFirst(32), RecordTrace: true})
	if err := r.RunMessage("m"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := r.Fork(nil, nil)
		if f == nil {
			b.Fatal("nil fork")
		}
	}
}

func BenchmarkE2dInduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.RunE2d(3)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkE7TransportExplore(b *testing.B) {
	var rows []core.E7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = core.RunE7()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Protocol == "swindow-s2-w1" {
			b.ReportMetric(float64(r.WitnessOps), "witness-ops")
		}
	}
}

func BenchmarkExploreAltbit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := Verify(AltBit(), VerifyConfig{MaxMessages: 2})
		if err != nil || rep.Verdict != "VIOLATED" {
			b.Fatalf("verify failed: %v", err)
		}
	}
}

func BenchmarkExploreSeqnumExhaustive(b *testing.B) {
	var states int
	for i := 0; i < b.N; i++ {
		rep, err := Verify(SeqNum(), VerifyConfig{MaxMessages: 2})
		if err != nil || !rep.Exhausted {
			b.Fatalf("verify failed: %v", err)
		}
		states = rep.States
	}
	b.ReportMetric(float64(states), "states")
}

func BenchmarkTransportWindowed(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < b.N; i++ {
		r := NewRunner(Config{
			Protocol:   SlidingWindow(0, 4),
			DataPolicy: Probabilistic(0.2, rng),
		})
		for m := 0; m < 8; m++ {
			r.SubmitMsg("m")
		}
		if err := r.RunToIdle(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10OneOverK(b *testing.B) {
	var rows []core.E10Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = core.RunE10(64, []int{2, 4, 8, 16})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.K == 16 {
			b.ReportMetric(float64(r.Cost), "cost@k=16")
		}
	}
}

func BenchmarkE11Trajectories(b *testing.B) {
	var rows []core.E11Series
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = core.RunE11([]float64{0.25}, 16, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range rows {
		b.ReportMetric(s.Rate, "phase-rate")
	}
}

func BenchmarkE8FIFOContrast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.RunE8()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkE9Ablations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.RunE9()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Variant == "cntlinear" && r.Broken {
				b.Fatal("baseline broken")
			}
		}
	}
}

// BenchmarkTraceOverhead measures the cost of trace recording on the same
// workload with and without a TraceLog attached (target: < 2× slowdown;
// see EXPERIMENTS.md for the recorded number).
func BenchmarkTraceOverhead(b *testing.B) {
	workload := func(b *testing.B, withTrace bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			cfg := Config{
				Protocol:   CntLinear(),
				DataPolicy: Probabilistic(0.25, rand.New(rand.NewSource(int64(i)))),
			}
			if withTrace {
				cfg.TraceLog = NewTraceLog()
			}
			r := NewRunner(cfg)
			if res := r.Run(8); res.Err != nil {
				b.Fatal(res.Err)
			}
			if withTrace {
				b.ReportMetric(float64(r.TraceLog().Len()), "events/run")
			}
		}
	}
	b.Run("bare", func(b *testing.B) { workload(b, false) })
	b.Run("recorded", func(b *testing.B) { workload(b, true) })
}

// BenchmarkReplayRoundTrip measures replaying a recorded run.
func BenchmarkReplayRoundTrip(b *testing.B) {
	l := NewTraceLog()
	r := NewRunner(Config{
		Protocol:   CntLinear(),
		DataPolicy: Probabilistic(0.25, rand.New(rand.NewSource(1))),
		TraceLog:   l,
	})
	if res := r.Run(8); res.Err != nil {
		b.Fatal(res.Err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := Replay(l)
		if err != nil {
			b.Fatal(err)
		}
		if rr.Divergence != nil {
			b.Fatalf("diverged: %v", rr.Divergence)
		}
	}
}

func BenchmarkUDPSeqnumRoundTrip(b *testing.B) {
	pair, err := NewLoopbackPair(SeqNum(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer pair.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pair.Sender.Send("bench"); err != nil {
			b.Fatal(err)
		}
		if err := pair.Sender.Flush(10 * time.Second); err != nil {
			b.Fatal(err)
		}
		<-pair.Receiver.Out()
	}
}

func BenchmarkWireCodec(b *testing.B) {
	p := Packet{Header: "d1234", Payload: "the quick brown fox jumps over the lazy dog"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := EncodePacket(p)
		if _, err := DecodePacket(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIOAutoAltbitWitness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := ioauto.NewAltBitSystem(ioauto.NonFIFOKind, 2, 2)
		if err != nil {
			b.Fatal(err)
		}
		res, err := ioauto.Reach(sys, ioauto.Violated, 1<<20)
		if err != nil || res.Found == nil {
			b.Fatalf("witness not found: %v", err)
		}
	}
}

func BenchmarkIOAutoSeqnumVerify(b *testing.B) {
	var states int
	for i := 0; i < b.N; i++ {
		sys, err := ioauto.NewSeqNumSystem(ioauto.NonFIFOKind, 2, 2)
		if err != nil {
			b.Fatal(err)
		}
		res, err := ioauto.Reach(sys, ioauto.Violated, 1<<22)
		if err != nil || !res.Exhausted {
			b.Fatalf("verification incomplete: %v", err)
		}
		states = res.States
	}
	b.ReportMetric(float64(states), "states")
}

func BenchmarkE12CrossFormalism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.RunE12()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}
