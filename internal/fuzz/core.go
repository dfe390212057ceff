package fuzz

import (
	"strconv"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stabilize"
	"repro/internal/trace"
)

// Core is the interned execution engine, built for throughput. It has the
// observable phenotype (coverage points, verdicts, logs) of a plain
// string-keyed executor — the package tests keep that reference and hold the
// two equal. Where the reference allocates a runner per input, renders two
// StateKey strings per operation and re-scans the recorded trace with the
// batch checkers, a Core:
//
//   - pools one sim.Runner and resets it per input, recycling the channel
//     multisets, recorder and metrics slices;
//   - renders the joint state key into one reused scratch buffer
//     (protocol.KeyAppender) and caches the coverage hash midstate per joint
//     key — the per-operation coverage point costs one map probe and three
//     FNV steps instead of building and hashing both key strings;
//   - judges clean runs with an incremental ioa.LiveChecker monitor instead
//     of recording a trace and re-walking it per property.
//
// Corrupted-start inputs keep the recorded-trace path: the amnesty judge
// consumes an ioa.Trace, and corruption is the cold path by construction
// (one in three candidates at most). A Core is protocol-bound and not safe
// for concurrent use; campaigns run one per worker.
type Core struct {
	proto protocol.Protocol
	pair  map[string]uint64 // "tkey\0rkey" -> FNV midstate over those bytes
	run   *sim.Runner       // pooled across executions; nil until first use
	check *ioa.LiveChecker
	dpol  channel.DecisionReplayer // data policy, rebound per execution
	apol  channel.DecisionReplayer // ack policy, rebound per execution
	jbuf  []byte                   // scratch for the rendered joint key

	// Adjacency cache: the coverage point (pre-salt) last computed and the
	// runner version it was computed at. Schedules are full of unproductive
	// operations — drains with no pending acks, transmits while idle, stale
	// picks on empty channels — and sim.Runner.Version() is unchanged across
	// them, so the point is reused without rendering a single key byte.
	lastVer uint64
	lastPt  uint64
	ptValid bool
}

// NewCore returns an execution core for proto.
func NewCore(proto protocol.Protocol) *Core {
	return &Core{
		proto: proto,
		pair:  make(map[string]uint64),
		check: ioa.NewLiveChecker(),
	}
}

// Execute drives one input against a fresh instance of the Core's protocol
// and reports coverage and verdicts. withLog additionally records the
// execution as a replayable trace.Log (costlier; used only when promoting a
// winner or seeding certificates).
//
// Execution is total and deterministic: every syntactically valid input is a
// feasible schedule (infeasible stale picks are no-ops, dry decision streams
// fall back to Delay) and two executions of the same input are identical.
func (c *Core) Execute(in *Input, withLog bool) *ExecResult {
	res := &ExecResult{Points: make([]uint64, 0, len(in.Ops))}

	var tlog *trace.Log
	if withLog {
		tlog = trace.NewLog(map[string]string{trace.MetaSource: "fuzz"})
	}
	corrupt := in.Corrupt != nil
	c.dpol.Bind(in.Data, channel.Delay, &res.DataUsed)
	c.apol.Bind(in.Ack, channel.Delay, &res.AckUsed)
	cfg := sim.Config{
		Protocol:   c.proto,
		DataPolicy: &c.dpol,
		AckPolicy:  &c.apol,
		// The amnesty judge consumes a materialised trace; clean runs are
		// judged by the live checker and need none.
		RecordTrace: corrupt,
		TraceLog:    tlog,
	}
	if !corrupt {
		c.check.Reset()
		cfg.Monitor = c.check
	}
	if c.run == nil {
		c.run = sim.NewRunner(cfg)
	} else {
		c.run.Reset(cfg)
	}
	r := c.run

	var salt uint64
	if corrupt {
		res.Corruption = resolveCorruption(c.proto, in.Corrupt)
		res.Amnesty = stabilize.Amnesty(res.Corruption, CorruptOccupancy)
		salt = corruptSalt(res.Corruption)
		if err := stabilize.Apply(r, res.Corruption); err != nil {
			// Unreachable: resolution reduces every pick into the declared
			// space and the runner has not executed an operation yet.
			return res
		}
	}

	// stabilize.Apply mutates endpoints and channels without runner events,
	// so the adjacency cache must not survive into a fresh execution.
	c.ptValid = false

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
			n := ch.DistinctPackets()
			if n == 0 {
				continue
			}
			p := ch.PacketAt(int(op.Pick) % n)
			if err := r.DeliverStale(op.Dir, p); err != nil {
				// Unreachable: the pick came from the live in-transit set.
				continue
			}
			res.StaleHits++
		}
		res.Points = append(res.Points, c.point(r)^salt)
	}

	if corrupt {
		run := r.Result()
		j := stabilize.JudgeTrace(run.Trace, res.Amnesty)
		res.Verdict, res.Charges = j.Violation, j.Charges
		if j.Violation == nil {
			q := stabilize.JudgeQuiescent(run.Trace, res.Amnesty)
			res.DL3, res.Charges = q.Violation, q.Charges
		}
	} else {
		if err := c.check.Safety(); err != nil {
			res.Verdict, _ = ioa.AsViolation(err)
		}
		if err := c.check.DL3Quiescent(); err != nil {
			res.DL3, _ = ioa.AsViolation(err)
		}
	}
	if withLog {
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

// FNV-64a, inlined so the midstate can be cached mid-stream. The constants
// and update rule are hash/fnv's; the string reference point() in the
// package tests is what this must match.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// point computes the coverage point of the runner's current joint
// configuration, bit-identical to the string reference
// point(r.JointState()) in the package tests.
//
// The string point hashes tkey · 0x00 · rkey · 0x00 · bucket(data) ·
// bucket(ack). FNV-64a consumes bytes strictly left to right, so the hash
// state after tkey · 0x00 · rkey depends only on those bytes — the core
// renders them into one reused scratch buffer, caches the midstate per
// joint key (a no-alloc map[string] probe; the key string is materialised
// once per distinct joint state, on the cache miss), and finishes each
// observation with the three trailing bytes.
func (c *Core) point(r *sim.Runner) uint64 {
	if c.ptValid && r.Version() == c.lastVer {
		return c.lastPt
	}
	b := protocol.AppendStateKeyOf(c.jbuf[:0], r.T)
	b = append(b, 0)
	b = protocol.AppendStateKeyOf(b, r.R)
	c.jbuf = b
	mid, ok := c.pair[string(b)]
	if !ok {
		mid = uint64(fnvOffset64)
		for _, x := range b {
			mid = (mid ^ uint64(x)) * fnvPrime64
		}
		c.pair[string(b)] = mid
	}
	d, a := r.ChData.InTransit(), r.ChAck.InTransit()
	h := (mid ^ 0) * fnvPrime64
	h = (h ^ uint64(byte(occBucket(d)))) * fnvPrime64
	h = (h ^ uint64(byte(occBucket(a)))) * fnvPrime64
	c.lastVer, c.lastPt, c.ptValid = r.Version(), h, true
	return h
}
