package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	nonfifo "repro"
)

// verifyJob is one Verify call with its known answer. want and property
// follow from the protocol's DLStatus / StabilizeStatus declaration (or,
// for the transport adapters, which declare none, from EXPERIMENTS.md);
// TestJobsAgreeWithDeclarations keeps the two in step. states is the
// baseline state count: a differing count is reported as drift, not as a
// failure, because a refactor of the bound model may legitimately move it.
type verifyJob struct {
	proto    string
	cfg      nonfifo.VerifyConfig
	want     string // PROVED, BUDGET or VIOLATED
	property string // the violated property when VIOLATED
	states   int
	source   string
}

// verifyJobs is the explore workload's Verify list: exhaustive proofs at
// widened bounds, a budget-bound run, a multi-root stabilization proof and
// replay-confirmed violations, both modes.
var verifyJobs = []verifyJob{
	{"seqnum", nonfifo.VerifyConfig{Occupancy: 4, MaxMessages: 4}, "PROVED", "", 11834, "EXPERIMENTS.md POR table"},
	{"cntk4", nonfifo.VerifyConfig{Occupancy: 3, MaxMessages: 3}, "PROVED", "", 923, "declared sound; count recorded"},
	{"cntlinear", nonfifo.VerifyConfig{Occupancy: 3, MaxMessages: 3}, "PROVED", "", 9801, "declared sound; count recorded"},
	{"cntexp", nonfifo.VerifyConfig{MaxStates: 1 << 17}, "BUDGET", "", 131072, "declared sound and state-unbounded"},
	{"stabdl2", nonfifo.VerifyConfig{Stabilize: true}, "PROVED", "", 38528, "EXPERIMENTS.md E13"},
	{"altbit", nonfifo.VerifyConfig{}, "VIOLATED", "DL1", 37, "EXPERIMENTS.md bounded verification"},
	{"cheat1", nonfifo.VerifyConfig{}, "VIOLATED", "DL1", 41, "EXPERIMENTS.md bounded verification"},
	{"cntnobind", nonfifo.VerifyConfig{}, "VIOLATED", "DL1", 188, "EXPERIMENTS.md bounded verification"},
	{"livelock", nonfifo.VerifyConfig{}, "VIOLATED", "DL3", 4, "EXPERIMENTS.md bounded verification"},
	{"stabnaive", nonfifo.VerifyConfig{Stabilize: true}, "VIOLATED", "DL1", 355, "EXPERIMENTS.md E13"},
	{"altbit", nonfifo.VerifyConfig{Stabilize: true}, "VIOLATED", "DL1", 1312, "EXPERIMENTS.md E13"},
	{"swindow-s4-w2", nonfifo.VerifyConfig{Occupancy: 3, MaxMessages: 4}, "VIOLATED", "DL1", 784, "EXPERIMENTS.md POR table"},
	{"gbn-s4-w2", nonfifo.VerifyConfig{Occupancy: 4, MaxMessages: 4}, "VIOLATED", "DL1", 1091, "EXPERIMENTS.md POR table"},
}

// tinyVerifyJobs is the smoke-test list.
var tinyVerifyJobs = []verifyJob{
	{"seqnum", nonfifo.VerifyConfig{}, "PROVED", "", 248, "EXPERIMENTS.md bounded verification"},
	{"altbit", nonfifo.VerifyConfig{}, "VIOLATED", "DL1", 37, "EXPERIMENTS.md bounded verification"},
	{"livelock", nonfifo.VerifyConfig{}, "VIOLATED", "DL3", 4, "EXPERIMENTS.md bounded verification"},
}

// auditJob is one AuditProtocol call at the default bounds. The expected
// verdict is derived from the protocol's Bounds declaration at run time
// (declaredAudit); states is the EXPERIMENTS.md baseline (0: none
// published).
type auditJob struct {
	proto  string
	states int
}

// auditJobs covers the protocol registry plus the finite-S transport
// adapters.
var auditJobs = []auditJob{
	{"altbit", 212}, {"cheat1", 1366}, {"cntexp", 65538}, {"cntk4", 3244},
	{"cntlinear", 892}, {"seqnum", 65536}, {"stabdl2", 0}, {"stabnaive", 0},
	{"swindow-s4-w2", 5856}, {"gbn-s4-w2", 1640}, {"gbn-s8-w4", 10060},
}

var tinyAuditJobs = []auditJob{{"altbit", 212}, {"livelock", 4}, {"cntlinear", 892}}

// lookupProtocol resolves a protocol name through the facade: the registry,
// the two specimens outside it, and the transport adapters.
func lookupProtocol(name string) (nonfifo.Protocol, error) {
	if p, ok := nonfifo.Protocols()[name]; ok {
		return p, nil
	}
	var raw nonfifo.Protocol
	switch name {
	case "livelock":
		return nonfifo.Livelock(), nil
	case "cntnobind":
		return nonfifo.CntNoBind(), nil
	case "swindow-s4-w2":
		raw = nonfifo.SlidingWindow(4, 2)
	case "swindow-unbounded-w2":
		raw = nonfifo.SlidingWindow(0, 2)
	case "gbn-s4-w2":
		raw = nonfifo.GoBackN(4, 2)
	case "gbn-s8-w4":
		raw = nonfifo.GoBackN(8, 4)
	case "gbn-unbounded-w2":
		raw = nonfifo.GoBackN(0, 2)
	default:
		return nil, fmt.Errorf("unknown protocol %q", name)
	}
	return nonfifo.AdaptTransport(raw)
}

// declaredAudit is the audit verdict a protocol's Bounds declaration
// predicts: CERTIFIED for a declared state-bounded protocol, CONSISTENT for
// a declared unbounded one, OBSERVED without a declaration.
func declaredAudit(p nonfifo.Protocol) string {
	b, ok := p.(interface{ Bounds() nonfifo.Bounds })
	switch {
	case !ok:
		return "OBSERVED"
	case b.Bounds().StateBounded:
		return "CERTIFIED"
	default:
		return "CONSISTENT"
	}
}

// exploreWL runs the Verify list and the audit list; the seed orders them.
type exploreWL struct {
	seed   int64
	jobs   []verifyJob
	audits []auditJob
	protos map[string]nonfifo.Protocol

	rounds    int
	witnesses []witness // the first round's counterexamples, replayed by check
}

type witness struct {
	job verifyJob
	log *nonfifo.TraceLog
}

func newExplore(seed int64, sz size) workload {
	w := &exploreWL{seed: seed, jobs: verifyJobs, audits: auditJobs}
	if sz == sizeTiny {
		w.jobs, w.audits = tinyVerifyJobs, tinyAuditJobs
	}
	return w
}

// setup resolves every protocol, orders the lists by the seed, and warms
// each protocol up with a one-message Verify and an audit at occupancy 1,
// both capped at 4096 states.
func (w *exploreWL) setup() error {
	rng := rand.New(rand.NewSource(w.seed))
	w.jobs = append([]verifyJob(nil), w.jobs...)
	w.audits = append([]auditJob(nil), w.audits...)
	rng.Shuffle(len(w.jobs), func(i, j int) { w.jobs[i], w.jobs[j] = w.jobs[j], w.jobs[i] })
	rng.Shuffle(len(w.audits), func(i, j int) { w.audits[i], w.audits[j] = w.audits[j], w.audits[i] })
	w.protos = map[string]nonfifo.Protocol{}
	var names []string
	for _, j := range w.jobs {
		names = append(names, j.proto)
	}
	for _, a := range w.audits {
		names = append(names, a.proto)
	}
	for _, n := range names {
		if _, ok := w.protos[n]; ok {
			continue
		}
		p, err := lookupProtocol(n)
		if err != nil {
			return err
		}
		w.protos[n] = p
		if _, err := nonfifo.Verify(p, nonfifo.VerifyConfig{Occupancy: 1, MaxMessages: 1, MaxStates: 1 << 12}); err != nil {
			return fmt.Errorf("warm-up verify %s: %w", n, err)
		}
		nonfifo.AuditProtocol(p, nonfifo.AuditConfig{Occupancy: 1, MaxStates: 1 << 12})
	}
	return nil
}

// round reaches every verdict of both lists and judges each against its
// known answer. Latency is per explored configuration: each call's median
// time over its state count, one sample per state.
func (w *exploreWL) round(tr *tracer, root int, g *gate) (roundStats, error) {
	var (
		calls                 []call
		verifySecs, auditSecs float64
		states, edges, dl3    int
		auditStates           int
		space                 = fnv.New32a()
		first                 = w.rounds == 0
	)
	w.rounds++
	for _, j := range w.jobs {
		var (
			rep *nonfifo.VerifyReport
			err error
		)
		settle()
		d := tr.timed(root, "verify.Verify", func() { rep, err = nonfifo.Verify(w.protos[j.proto], j.cfg) })
		if err != nil {
			return roundStats{}, fmt.Errorf("verify %s: %w", j.proto, err)
		}
		verifySecs += d.Seconds()
		calls = append(calls, call{secs: d.Seconds(), work: float64(rep.States), base: true})
		states += rep.States
		edges += rep.Edges
		dl3 += rep.DL3Attempted
		space.Write([]byte(rep.SpaceHash))
		g.expect(string(rep.Verdict) == j.want && rep.Property == j.property,
			"verify %s %+v: %s %s, want %s %s (%s)", j.proto, j.cfg, rep.Verdict, rep.Property, j.want, j.property, j.source)
		if !first {
			continue
		}
		if rep.States != j.states {
			g.noteDrift("verify %s %+v: %d states, baseline %d (%s)", j.proto, j.cfg, rep.States, j.states, j.source)
		}
		if rep.Witness != nil {
			w.witnesses = append(w.witnesses, witness{j, rep.Witness})
		}
	}
	for _, a := range w.audits {
		p := w.protos[a.proto]
		var rep *nonfifo.AuditReport
		settle()
		d := tr.timed(root, "analyze.AuditProtocol", func() { rep = nonfifo.AuditProtocol(p, nonfifo.AuditConfig{}) })
		auditSecs += d.Seconds()
		auditStates += rep.States
		calls = append(calls, call{secs: d.Seconds(), work: float64(rep.States)})
		want := declaredAudit(p)
		g.expect(string(rep.Verdict) == want,
			"audit %s: %s, want %s from its Bounds declaration (%v)", a.proto, rep.Verdict, want, rep.Failures)
		if first && a.states != 0 && rep.States != a.states {
			g.noteDrift("audit %s: %d states, baseline %d (EXPERIMENTS.md)", a.proto, rep.States, a.states)
		}
	}
	rs := roundStats{calls: calls, callLatency: true, latN: states + auditStates}
	rs.counts = fmt.Sprintf("%d verify jobs: %d states, %d edges, space %08x; %d audits: %d states",
		len(w.jobs), states, edges, space.Sum32(), len(w.audits), auditStates)
	rs.layer = layerMetrics{
		"verify.busy_s":              verifySecs,
		"verify.ns_per_state":        ratio{verifySecs * 1e9, float64(states)}.value(),
		"verify.states":              float64(states),
		"verify.edges":               float64(edges),
		"verify.dl3_attempted":       float64(dl3),
		"verify.space_fingerprint":   float64(space.Sum32()),
		"analyze.audit_busy_s":       auditSecs,
		"analyze.audit_ns_per_state": ratio{auditSecs * 1e9, float64(auditStates)}.value(),
		"analyze.audit_states":       float64(auditStates),
	}
	return rs, nil
}

// check replays every counterexample the prover reported: the replay must
// reproduce the recorded verdict without diverging.
func (w *exploreWL) check(tr *tracer, g *gate, lm layerMetrics) error {
	var total time.Duration
	for _, wt := range w.witnesses {
		var (
			rr  *nonfifo.ReplayResult
			err error
		)
		total += tr.timed(0, "replay.Replay", func() { rr, err = nonfifo.Replay(wt.log) })
		g.expect(err == nil && rr.Divergence == nil && rr.VerdictMatches,
			"witness of %s %+v does not replay to its %s verdict (err %v)", wt.job.proto, wt.job.cfg, wt.job.property, err)
	}
	lm["replay.witness_ms"] = ratio{float64(total.Nanoseconds()) / 1e6, float64(len(w.witnesses))}.value()
	g.noteBase("replay.witness_ms is the mean over %d witnesses", len(w.witnesses))
	return nil
}

// probe has nothing to add: every explore call is already timed per round.
func (w *exploreWL) probe(*tracer, layerMetrics, *gate) error { return nil }

func (w *exploreWL) close() {}
