package fuzz

// The string-keyed reference executor and the differential harness that
// locks the interned Core to it. The Core rebuilt the executor's hot loop —
// pooled runners, append-rendered state keys, midstate-cached coverage
// hashes — under an equivalence obligation: none of it may change a single
// observable. The reference lives here, in the package's tests, and the
// tests below replay identical schedules through both, asserting identical
// event streams, coverage points, verdicts and campaign trajectories. A fast
// path that drifts from the reference fails here, not in a campaign three
// changes later.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stabilize"
	"repro/internal/trace"
	"repro/internal/transport"
)

// point hashes one joint configuration into a coverage point: the string
// form of Core.point.
func point(tkey, rkey string, dataTransit, ackTransit int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(tkey))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(rkey))
	_, _ = h.Write([]byte{0, byte(occBucket(dataTransit)), byte(occBucket(ackTransit))})
	return h.Sum64()
}

// Execute is the string-keyed reference executor the interned Core is held
// to: it drives one input against a fresh instance of proto through a plain
// sim.Runner, renders joint state keys as strings, and hashes coverage
// points with hash/fnv. withLog additionally records the execution as a
// replayable trace.Log.
//
// Execution is total and deterministic: every syntactically valid input is a
// feasible schedule (infeasible stale picks are no-ops, dry decision streams
// fall back to Delay) and two executions of the same input are identical.
func Execute(proto protocol.Protocol, in *Input, withLog bool) *ExecResult {
	res := &ExecResult{Points: make([]uint64, 0, len(in.Ops))}

	var tlog *trace.Log
	if withLog {
		tlog = trace.NewLog(map[string]string{trace.MetaSource: "fuzz"})
	}
	r := sim.NewRunner(sim.Config{
		Protocol:    proto,
		DataPolicy:  channel.Counting(channel.FromDecisions(in.Data, channel.Delay, nil), &res.DataUsed),
		AckPolicy:   channel.Counting(channel.FromDecisions(in.Ack, channel.Delay, nil), &res.AckUsed),
		RecordTrace: true,
		TraceLog:    tlog,
	})

	var salt uint64
	if in.Corrupt != nil {
		res.Corruption = resolveCorruption(proto, in.Corrupt)
		res.Amnesty = stabilize.Amnesty(res.Corruption, CorruptOccupancy)
		salt = corruptSalt(res.Corruption)
		if err := stabilize.Apply(r, res.Corruption); err != nil {
			// Unreachable: resolution reduces every pick into the declared
			// space and the runner has not executed an operation yet.
			return res
		}
	}

	submits := 0
	for _, op := range in.Ops {
		switch op.Kind {
		case OpSubmit:
			r.SubmitMsg("m" + strconv.Itoa(submits))
			submits++
		case OpTransmit:
			r.StepTransmit()
		case OpDrain:
			r.DrainAcks()
		case OpStale:
			ch := r.ChData
			if op.Dir == ioa.RtoT {
				ch = r.ChAck
			}
			pkts := ch.Packets()
			if len(pkts) == 0 {
				continue
			}
			p := pkts[int(op.Pick)%len(pkts)]
			if err := r.DeliverStale(op.Dir, p); err != nil {
				// Unreachable: the pick came from the live in-transit set.
				continue
			}
			res.StaleHits++
		}
		res.Points = append(res.Points, point(r.JointState())^salt)
	}

	run := r.Result()
	if in.Corrupt != nil {
		// Corrupted runs answer to the amnesty judge: faults within the
		// corruption's budget are the stabilization latitude, faults beyond
		// it are the violation. The clean-start checkers would flag the very
		// first bought fault and tell us nothing about convergence.
		j := stabilize.JudgeTrace(run.Trace, res.Amnesty)
		res.Verdict, res.Charges = j.Violation, j.Charges
		if j.Violation == nil {
			q := stabilize.JudgeQuiescent(run.Trace, res.Amnesty)
			res.DL3, res.Charges = q.Violation, q.Charges
		}
	} else {
		if err := ioa.CheckSafety(run.Trace); err != nil {
			res.Verdict, _ = ioa.AsViolation(err)
		}
		if err := ioa.CheckDL3Quiescent(run.Trace); err != nil {
			res.DL3, _ = ioa.AsViolation(err)
		}
	}
	if withLog {
		// Mirror replay's verdict priority: safety wins, else the quiescent
		// DL3 miss (so promoted livelock traces carry their liveness claim).
		ve := trace.Event{Kind: trace.KindVerdict}
		switch {
		case res.Verdict != nil:
			ve.Property, ve.Index, ve.Detail = res.Verdict.Property, res.Verdict.Index, res.Verdict.Detail
		case res.DL3 != nil:
			ve.Property, ve.Index, ve.Detail = res.DL3.Property, res.DL3.Index, res.DL3.Detail
		}
		tlog.Emit(ve)
		res.Log = tlog
	}
	return res
}

// CompareExec executes in through the string reference executor
// (Execute) and through core (the interned engine), with logging on,
// and returns a description of the first divergence, or nil when the two
// phenotypes are identical. Passing the same core across many inputs is
// deliberate — it exercises the pooled-runner Reset path, which is exactly
// where stale state would hide.
func CompareExec(proto protocol.Protocol, core *Core, in *Input) error {
	want := Execute(proto, in, true)
	got := core.Execute(in, true)

	if err := diffViolation("verdict", want.Verdict, got.Verdict); err != nil {
		return err
	}
	if err := diffViolation("dl3", want.DL3, got.DL3); err != nil {
		return err
	}
	if len(want.Points) != len(got.Points) {
		return fmt.Errorf("coverage points: %d (string) vs %d (interned)", len(want.Points), len(got.Points))
	}
	for i := range want.Points {
		if want.Points[i] != got.Points[i] {
			return fmt.Errorf("coverage point %d: %016x (string) vs %016x (interned)", i, want.Points[i], got.Points[i])
		}
	}
	if want.DataUsed != got.DataUsed || want.AckUsed != got.AckUsed {
		return fmt.Errorf("decisions used: data %d/%d, ack %d/%d (string/interned)",
			want.DataUsed, got.DataUsed, want.AckUsed, got.AckUsed)
	}
	if want.StaleHits != got.StaleHits {
		return fmt.Errorf("stale hits: %d (string) vs %d (interned)", want.StaleHits, got.StaleHits)
	}
	if want.Corruption.Key() != got.Corruption.Key() {
		return fmt.Errorf("resolved corruption: %q (string) vs %q (interned)", want.Corruption.Key(), got.Corruption.Key())
	}
	if want.Amnesty != got.Amnesty || want.Charges != got.Charges {
		return fmt.Errorf("amnesty/charges: %d/%d (string) vs %d/%d (interned)",
			want.Amnesty, want.Charges, got.Amnesty, got.Charges)
	}
	if len(want.Log.Events) != len(got.Log.Events) {
		return fmt.Errorf("event stream: %d events (string) vs %d (interned)",
			len(want.Log.Events), len(got.Log.Events))
	}
	for i := range want.Log.Events {
		if want.Log.Events[i] != got.Log.Events[i] {
			return fmt.Errorf("event %d: %s (string) vs %s (interned)",
				i, want.Log.Events[i], got.Log.Events[i])
		}
	}
	return nil
}

func diffViolation(what string, want, got *ioa.Violation) error {
	switch {
	case want == nil && got == nil:
		return nil
	case want == nil || got == nil:
		return fmt.Errorf("%s: %v (string) vs %v (interned)", what, want, got)
	case *want != *got:
		return fmt.Errorf("%s: %+v (string) vs %+v (interned)", what, *want, *got)
	}
	return nil
}

// specimens returns every protocol the harness replays through both cores:
// the full registry, the deliberately broken livelock protocol, and the
// finite-S transport protocols (whose endpoints exercise the Append*Key
// fallback paths — plain StateKey and the ControlKeyer quotient).
func specimens() []protocol.Protocol {
	var ps []protocol.Protocol
	for _, name := range protocol.Names() {
		ps = append(ps, protocol.Registry()[name])
	}
	ps = append(ps,
		protocol.NewLivelock(),
		transport.New(4, 2),
		transport.NewGoBackN(4, 2),
	)
	return ps
}

// schedules builds the deterministic input sweep for one protocol: the
// canonical seeds, a mutation chain grown from them (benign-to-adversarial
// — stale replays and drop storms arrive via the mutators), and a
// corrupted-start variant of every chain step.
func schedules(p protocol.Protocol, n int) []*Input {
	rng := rand.New(rand.NewSource(core.SplitSeed(42, "simdiff-"+p.Name())))
	ins := SeedInputs()
	parents := ins
	for len(ins) < n {
		parent := parents[rng.Intn(len(parents))]
		cand := Mutate(parent, rng)
		ins = append(ins, cand)
		parents = append(parents, cand)
		// Corrupted-start sibling: same schedule, corrupted gene on top.
		cc := cand.Clone()
		MutateCorrupt(cc, rng)
		ins = append(ins, cc)
	}
	return ins
}

// TestExecEquivalence replays the schedule sweep of every specimen through
// the string executor and one pooled interned core per protocol, demanding
// bit-identical phenotypes: event streams, coverage points, verdicts,
// decision usage and amnesty bookkeeping.
func TestExecEquivalence(t *testing.T) {
	for _, p := range specimens() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			c := NewCore(p)
			verdicts := 0
			for i, in := range schedules(p, 120) {
				if err := CompareExec(p, c, in); err != nil {
					t.Fatalf("input %d (%s): %v", i, in, err)
				}
				if r := Execute(p, in, false); r.Verdict != nil {
					verdicts++
				}
			}
			t.Logf("%s: %d schedules diverged on none (%d with safety verdicts)", p.Name(), 120, verdicts)
		})
	}
}

// TestExecEquivalenceOnWitness drives the sweep until a safety verdict
// appears for a protocol that is known attackable (altbit falls to stale
// replay), then holds both cores to the identical violation. This pins the
// harness to a DL1-class witness rather than relying on the sweep to find
// one by luck.
func TestExecEquivalenceOnWitness(t *testing.T) {
	p := protocol.NewAltBit()
	rng := rand.New(rand.NewSource(core.SplitSeed(7, "simdiff-witness")))
	c := NewCore(p)
	parents := SeedInputs()
	for i := 0; i < 5000; i++ {
		cand := Mutate(parents[rng.Intn(len(parents))], rng)
		parents = append(parents, cand)
		res := Execute(p, cand, false)
		if res.Verdict == nil {
			continue
		}
		if err := CompareExec(p, c, cand); err != nil {
			t.Fatalf("witness input (verdict %s): %v", res.Verdict.Property, err)
		}
		t.Logf("witness found after %d candidates: %s at event %d", i+1, res.Verdict.Property, res.Verdict.Index)
		return
	}
	t.Fatal("no safety verdict within 5000 mutated schedules; altbit should fall to stale replay")
}

// TestCampaignEquivalence runs a whole fuzzing campaign twice — string core
// and interned core, same seed, corrupted-start dimension on — and demands
// the identical trajectory: executions, corpus, coverage frontier and
// promoted findings. Coverage points are the campaign's steering signal, so
// any drift in the interned point computation would diverge the corpora
// within a few hundred executions.
func TestCampaignEquivalence(t *testing.T) {
	run := func() *Result {
		t.Helper()
		res, err := Run(Config{
			Protocol: protocol.NewAltBit(),
			Budget:   6000,
			Seed:     99,
			Corrupt:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	got := run()
	interned := newExecutor
	newExecutor = func(p protocol.Protocol) func(*Input, bool) *ExecResult {
		return func(in *Input, withLog bool) *ExecResult { return Execute(p, in, withLog) }
	}
	defer func() { newExecutor = interned }()
	want := run()
	if want.Execs != got.Execs || want.CorpusSize != got.CorpusSize ||
		want.CoveragePoints != got.CoveragePoints || want.DL3Misses != got.DL3Misses {
		t.Fatalf("campaign trajectory diverged:\nstring:   execs %d corpus %d coverage %d dl3 %d\ninterned: execs %d corpus %d coverage %d dl3 %d",
			want.Execs, want.CorpusSize, want.CoveragePoints, want.DL3Misses,
			got.Execs, got.CorpusSize, got.CoveragePoints, got.DL3Misses)
	}
	if len(want.Violations) != len(got.Violations) {
		t.Fatalf("violations: %d (string) vs %d (interned)", len(want.Violations), len(got.Violations))
	}
	for i := range want.Violations {
		w, g := want.Violations[i], got.Violations[i]
		if w.Property != g.Property || w.Corruption != g.Corruption || w.Ops != g.Ops || w.FoundAtExec != g.FoundAtExec {
			t.Fatalf("violation %d: %s/%q ops %d at %d (string) vs %s/%q ops %d at %d (interned)",
				i, w.Property, w.Corruption, w.Ops, w.FoundAtExec, g.Property, g.Corruption, g.Ops, g.FoundAtExec)
		}
	}
}
