package replay_test

// Differential equivalence of the pooled Shrinker against the log-plus-Run
// reference (reference_test.go), over logs from every producer that feeds
// the shrinker: fuzz campaigns, the stabilizing prover's corrupted-start
// witnesses, prover-style witnesses with stale drops, and soak sessions.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/channel"
	"repro/internal/fuzz"
	"repro/internal/ioa"
	"repro/internal/netlink"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/verify"
)

type namedLog struct {
	name string
	l    *trace.Log
}

// campaignLogs runs a serial campaign with a persisted corpus and returns
// the recorded logs of up to maxViolating safety-violating corpus inputs
// plus up to two DL3-only ones (which take the liveness oracles).
func campaignLogs(t testing.TB, p protocol.Protocol, seed, budget int64, maxViolating int) []namedLog {
	t.Helper()
	dir := t.TempDir()
	if _, err := fuzz.Run(fuzz.Config{Protocol: p, Workers: 1, Budget: budget, Seed: seed, CorpusDir: dir}); err != nil {
		t.Fatal(err)
	}
	inputs, err := fuzz.LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	core := fuzz.NewCore(p)
	var out []namedLog
	violating, dl3 := 0, 0
	for i, in := range inputs {
		res := core.Execute(in, true)
		switch {
		case res.Verdict != nil && violating < maxViolating:
			violating++
		case res.Verdict == nil && res.DL3 != nil && dl3 < 2:
			dl3++
		default:
			continue
		}
		out = append(out, namedLog{fmt.Sprintf("fuzz/%s-seed%d/%d", p.Name(), seed, i), res.Log})
	}
	if violating == 0 {
		t.Fatalf("%s campaign seed %d bred no violating input", p.Name(), seed)
	}
	return out
}

// stabilizeWitness is the stabilizing prover's corrupted-start witness for
// stabnaive: it opens with a poison operation.
func stabilizeWitness(t *testing.T) *trace.Log {
	t.Helper()
	rep, err := verify.Run(protocol.NewStabNaive(), verify.Config{Stabilize: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Witness == nil {
		t.Fatalf("stabnaive: no stabilize witness (verdict %s)", rep.Verdict)
	}
	return rep.Witness
}

// corruptLogs returns the recorded logs of up to six corpus inputs of a
// stabnaive corrupted-start campaign whose start corrupts an endpoint (a
// corrupt operation, which the prover's poison-only witnesses lack).
func corruptLogs(t *testing.T) []namedLog {
	t.Helper()
	p := protocol.NewStabNaive()
	dir := t.TempDir()
	if _, err := fuzz.Run(fuzz.Config{Protocol: p, Workers: 1, Budget: 400, Seed: 1, CorpusDir: dir, Corrupt: true}); err != nil {
		t.Fatal(err)
	}
	inputs, err := fuzz.LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	core := fuzz.NewCore(p)
	var out []namedLog
	for i, in := range inputs {
		if res := core.Execute(in, true); hasKind(res.Log, trace.KindCorrupt) && len(out) < 6 {
			out = append(out, namedLog{fmt.Sprintf("fuzz/stabnaive-corrupt/%d", i), res.Log})
		}
	}
	if len(out) == 0 {
		t.Fatal("stabnaive corrupted-start campaign bred no input with a corrupt operation")
	}
	return out
}

// dropWitness records the altbit replay attack the way the prover renders
// a witness schedule (sim.Runner moves under a TraceLog), with a stale drop
// of a second stranded copy. The prover's breadth-first witnesses for the
// registry's violating protocols never need a drop at small bounds, so this
// shape is recorded by hand.
func dropWitness(t *testing.T) *trace.Log {
	t.Helper()
	l := trace.NewLog(nil)
	r := sim.NewRunner(sim.Config{
		Protocol:    mustLookup(t, "altbit"),
		DataPolicy:  channel.Script(channel.Delay, channel.Delay),
		AckPolicy:   channel.Reliable(),
		RecordTrace: true,
		TraceLog:    l,
	})
	d0 := ioa.Packet{Header: "d0", Payload: "m0"}
	r.SubmitMsg("m0")
	r.StepTransmit() // d0 delayed
	r.StepTransmit() // d0 delayed again: two stranded copies
	if err := r.DropStale(ioa.TtoR, d0); err != nil {
		t.Fatal(err)
	}
	r.StepTransmit() // d0 delivered: m0 accepted
	r.DrainAcks()
	r.SubmitMsg("m1")
	r.StepTransmit() // d1 delivered: m1 accepted
	if err := r.DeliverStale(ioa.TtoR, d0); err != nil {
		t.Fatal(err)
	}
	return l
}

// undecidedLog records an altbit DL1 in which every send is delayed, then
// strips the decision events, as a hand-edited trace might: every send on
// re-drive falls back to Delay, and the violation depends on that fallback.
func undecidedLog(t *testing.T) *trace.Log {
	t.Helper()
	l := trace.NewLog(nil)
	r := sim.NewRunner(sim.Config{
		Protocol:    mustLookup(t, "altbit"),
		DataPolicy:  channel.DelayAll(),
		AckPolicy:   channel.DelayAll(),
		RecordTrace: true,
		TraceLog:    l,
	})
	d0, d1 := ioa.Packet{Header: "d0", Payload: "m0"}, ioa.Packet{Header: "d1", Payload: "m1"}
	r.SubmitMsg("m0")
	r.StepTransmit()
	r.StepTransmit() // two d0 copies in transit
	stale := func(d ioa.Dir, p ioa.Packet) {
		if err := r.DeliverStale(d, p); err != nil {
			t.Fatal(err)
		}
	}
	stale(ioa.TtoR, d0) // m0 delivered
	r.DrainAcks()
	stale(ioa.RtoT, ioa.Packet{Header: "a0"})
	r.SubmitMsg("m1")
	r.StepTransmit()
	stale(ioa.TtoR, d1) // m1 delivered; the receiver expects bit 0 again
	stale(ioa.TtoR, d0) // the second d0 copy re-delivers m0: DL1
	kept := l.Events[:0]
	for _, e := range l.Events {
		if e.Kind != trace.KindDecision {
			kept = append(kept, e)
		}
	}
	l.Events = kept
	if rr, err := replay.Run(l); err != nil || rr.Verdict == nil || rr.Verdict.Property != "DL1" || !rr.DecisionsExhausted {
		t.Fatalf("decision-stripped log does not re-drive to a DL1 on the fallback (err %v)", err)
	}
	return l
}

func mustLookup(t *testing.T, name string) protocol.Protocol {
	t.Helper()
	p, err := replay.LookupProtocol(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func soakLog(t *testing.T) *trace.Log {
	t.Helper()
	res, err := netlink.RunLoopbackSession(netlink.SessionConfig{
		Protocol: protocol.NewAltBit(),
		Messages: 12,
		Chaos:    netlink.ChaosConfig{HoldProb: 0.3, DupProb: 0.2},
		Seed:     1, // pinned: this seed yields a DL1 on a live wire
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Log.Meta[trace.MetaKind] != "soak" {
		t.Fatalf("session log kind %q, want soak", res.Log.Meta[trace.MetaKind])
	}
	return res.Log
}

func hasKind(l *trace.Log, k trace.Kind) bool {
	for _, e := range l.Events {
		if e.Kind == k {
			return true
		}
	}
	return false
}

func encode(t *testing.T, l *trace.Log) []byte {
	t.Helper()
	if l == nil {
		return nil
	}
	var b bytes.Buffer
	if err := l.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func diffLogs(t *testing.T) []namedLog {
	logs := campaignLogs(t, protocol.NewAltBit(), 1, 300, 25)
	logs = append(logs, campaignLogs(t, protocol.NewCheat(1), 1, 300, 25)...)

	stab := stabilizeWitness(t)
	if !hasKind(stab, trace.KindPoison) {
		t.Fatalf("stabnaive witness lacks a poison operation:\n%s", stab)
	}
	logs = append(logs, corruptLogs(t)...)
	drop := dropWitness(t)
	if !hasKind(drop, trace.KindDropStale) {
		t.Fatalf("drop witness lacks a stale drop:\n%s", drop)
	}
	altbit, err := verify.Run(protocol.NewAltBit(), verify.Config{})
	if err != nil || altbit.Witness == nil {
		t.Fatalf("altbit: no prover witness (err %v)", err)
	}
	return append(logs,
		namedLog{"verify/stabnaive-stabilize", stab},
		namedLog{"verify/altbit", altbit.Witness},
		namedLog{"witness/altbit-dropstale", drop},
		namedLog{"edited/altbit-undecided", undecidedLog(t)},
		namedLog{"soak/altbit-seed1", soakLog(t)},
	)
}

// TestShrinkerMatchesReference holds the pooled Shrinker to the log-plus-Run
// reference: on every candidate the minimization loop evaluates, the pooled
// safety oracle agrees with Run's verdict, and Shrink returns the reference's
// certificate bytes, counts and oracle.
func TestShrinkerMatchesReference(t *testing.T) {
	candidates := 0
	for _, nl := range diffLogs(t) {
		n, err := replay.CheckSafetyOracle(nl.l)
		if err != nil {
			t.Fatalf("%s: %v", nl.name, err)
		}
		candidates += n

		got, gerr := replay.Shrink(nl.l)
		want, werr := replay.RefShrink(nl.l)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s: Shrink error %v, reference %v", nl.name, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if !bytes.Equal(encode(t, got.Log), encode(t, want.Log)) {
			t.Fatalf("%s: certificate differs from the reference:\ngot:\n%s\nwant:\n%s", nl.name, got.Log, want.Log)
		}
		g, w := *got, *want
		g.Log, w.Log = nil, nil
		if g != w {
			t.Fatalf("%s: result %+v, reference %+v", nl.name, g, w)
		}
	}
	if candidates < 1000 {
		t.Fatalf("only %d safety candidates checked; the log set no longer exercises the oracle", candidates)
	}
	t.Logf("%d safety candidates agree with Run", candidates)
}

// BenchmarkShrink shrinks the longest violating input of an altbit campaign
// and reports the candidate re-drives each shrink costs.
func BenchmarkShrink(b *testing.B) {
	var l *trace.Log
	for _, nl := range campaignLogs(b, protocol.NewAltBit(), 1, 300, 25) {
		if v, _ := nl.l.Verdict(); v != nil && v.Property == "DL1" && (l == nil || nl.l.Len() > l.Len()) {
			l = nl.l
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	replays := 0
	for i := 0; i < b.N; i++ {
		sr, err := replay.Shrink(l)
		if err != nil {
			b.Fatal(err)
		}
		replays += sr.Replays
	}
	b.ReportMetric(float64(replays)/float64(b.N), "replays/op")
}

// TestShrinkRefusesObservationalLog: a free-running netlink recording is
// observational, and the pooled shrink refuses it with Run's error.
func TestShrinkRefusesObservationalLog(t *testing.T) {
	l := dropWitness(t)
	l.SetMeta(trace.MetaKind, "netlink")
	_, gerr := replay.Shrink(l)
	_, werr := replay.RefShrink(l)
	if gerr == nil || fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("Shrink error %v, reference %v", gerr, werr)
	}
}
