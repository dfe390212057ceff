package replay

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Trace shrinking: delta-debug a violating trace down to a small
// counterexample while preserving the violated property.
//
// The unit of removal is the *operation group* — a driver operation together
// with the observations and decisions it caused. Removing whole groups keeps
// every remaining decision attached to the operation that consumed it, so a
// candidate trace is still a coherent script for the replayer. Candidates
// are never trusted: each one is re-executed — for safety on the Shrinker's
// pooled runner and judged by the live checker, for liveness by CloseDrive —
// and it survives only if the re-driven execution still violates the
// original property.
//
// Two oracle families are supported:
//
//   - Safety (PL1, DL1, DL2): the original delta-debugging mode. Safety
//     violations are prefix-monotone — once the violating event has happened
//     no extension can unhappen it — so a binary-search prefix-truncation
//     pass runs before greedy group removal. The greedy pass is a function
//     of that minimal violating prefix alone, which is what lets a Shrinker
//     memoise its outcome per prefix.
//   - Liveness (quiescent DL3): a trace violates iff, after the
//     quiescence-forcing closing drive of the selected DriveMode, some
//     submitted message still has no matching delivery and safety is clean.
//     Liveness is *not* prefix-monotone (extending a violating prefix with a
//     delivering operation removes the violation, and vice versa), so only
//     the greedy removal pass runs; greedy-to-fixpoint alone still yields
//     1-minimality — removing any single remaining group loses the
//     violation.
//
// The result is the *re-recorded* log of the final candidate, not the
// candidate itself: what Shrink returns is an execution the replayer
// actually performed, verdict included, never a speculative edit.

// ShrinkResult describes a completed shrink.
type ShrinkResult struct {
	// Log is the minimized, re-recorded violating trace.
	Log *trace.Log
	// Property is the preserved violation property (e.g. "DL1", "DL3").
	Property string
	// Oracle names the preservation oracle used: "safety", or
	// "DL3-reliable" / "DL3-adversarial" for the liveness modes.
	Oracle string
	// OriginalEvents and FinalEvents count trace events before and after.
	OriginalEvents, FinalEvents int
	// OriginalOps and FinalOps count driver operations before and after.
	OriginalOps, FinalOps int
	// Replays is the number of candidate executions performed.
	Replays int
}

// group is one driver operation plus its trailing observation events.
type group struct{ events []trace.Event }

// segment splits a log's events into operation groups. Events preceding the
// first operation (none, for runner-produced logs) form a prelude kept in
// every candidate; verdict events are dropped (replay re-derives them). The
// prelude and groups are windows of one copy of the remaining events.
func segment(l *trace.Log) (prelude []trace.Event, groups []group) {
	events := make([]trace.Event, 0, len(l.Events))
	var heads []int // index into events of each operation
	for _, e := range l.Events {
		if e.Kind == trace.KindVerdict {
			continue
		}
		if e.Kind.IsOp() {
			heads = append(heads, len(events))
		}
		events = append(events, e)
	}
	if len(heads) == 0 {
		return events, nil
	}
	groups = make([]group, len(heads))
	for i, h := range heads {
		end := len(events)
		if i+1 < len(heads) {
			end = heads[i+1]
		}
		groups[i] = group{events: events[h:end:end]}
	}
	return events[:heads[0]:heads[0]], groups
}

// ErrNotSmaller is returned by (*Shrinker).Shrink when the minimized trace
// would keep at least as many operations as the caller's bound: the shrink
// stops before re-recording a certificate that would not beat the one the
// caller already holds.
var ErrNotSmaller = errors.New("replay: shrunk trace is not smaller than the bound")

// Shrinker minimizes violating traces on one pooled, unrecorded runner. The
// safety oracle re-drives each candidate — prelude plus kept groups, straight
// from the group slices — on a runner reset per candidate, feeds it to an
// ioa.LiveChecker monitor, and compares the live safety verdict with the
// preserved property: no candidate log is built, recorded, diffed or
// batch-checked. Run's refusals carry over: an observational trace kind or an
// unknown protocol refuses the whole shrink, and a candidate whose corrupt or
// poison move fails does not hold. Only the final kept set is re-recorded,
// through Run, and its verdict re-checked.
//
// A Shrinker is bound to the protocol its traces name; a trace naming
// another protocol rebinds it. It memoises, per minimal violating prefix,
// the size the greedy pass reduces that prefix to, so a caller with a bound
// (the fuzz campaign passes its current winner's size) skips every prefix
// already known not to beat it. It is not safe for concurrent use.
type Shrinker struct {
	name  string // protocol name the pool is bound to
	proto protocol.Protocol
	run   *sim.Runner // pooled across candidates; nil until first use
	check *ioa.LiveChecker
	dpol  channel.DecisionReplayer
	apol  channel.DecisionReplayer
	data  []trace.Decision // scratch t→r decision stream of a candidate
	ack   []trace.Decision // scratch r→t decision stream
	used  int              // consultation count the replayers report into
	key   []byte           // scratch memo key
	// memo maps property · re-drive projection of (prelude, minimal
	// violating prefix) to the operation count the greedy pass keeps.
	memo map[string]int
}

// NewShrinker returns an unbound Shrinker.
func NewShrinker() *Shrinker {
	return &Shrinker{check: ioa.NewLiveChecker(), memo: make(map[string]int)}
}

// bind applies Run's refusals to l and binds the pool to its protocol.
func (s *Shrinker) bind(l *trace.Log) error {
	name := l.Meta[trace.MetaProtocol]
	var bound protocol.Protocol
	if s.proto != nil && name == s.name {
		bound = s.proto
	}
	p, err := resolve(l, bound)
	if err != nil {
		return err
	}
	if bound == nil {
		s.name, s.proto = name, p
		clear(s.memo)
	}
	return nil
}

// drive re-executes prelude plus keep on the pooled runner with the
// candidate's decision streams substituted for the channel policies, exactly
// as Run re-drives the candidate log, and returns the operation count. The
// live checker holds the run's verdicts afterwards.
func (s *Shrinker) drive(prelude []trace.Event, keep []group) (int, error) {
	s.data, s.ack = s.data[:0], s.ack[:0]
	s.appendDecisions(prelude)
	for _, g := range keep {
		s.appendDecisions(g.events)
	}
	// Delay once a stream runs dry, as Run: extra packets strand in transit.
	s.dpol.Bind(s.data, channel.Delay, &s.used)
	s.apol.Bind(s.ack, channel.Delay, &s.used)
	s.check.Reset()
	cfg := sim.Config{Protocol: s.proto, DataPolicy: &s.dpol, AckPolicy: &s.apol, Monitor: s.check}
	if s.run == nil {
		s.run = sim.NewRunner(cfg)
	} else {
		s.run.Reset(cfg)
	}
	for _, g := range keep {
		if _, err := issue(s.run, g.events[0]); err != nil {
			return 0, err
		}
	}
	return len(keep), nil
}

func (s *Shrinker) appendDecisions(events []trace.Event) {
	for _, e := range events {
		if e.Kind != trace.KindDecision {
			continue
		}
		switch e.Dir {
		case ioa.TtoR:
			s.data = append(s.data, e.Decision)
		case ioa.RtoT:
			s.ack = append(s.ack, e.Decision)
		}
	}
}

// memoKey renders property and the events of prelude and prefix a re-drive
// consumes (operations and decisions): two prefixes with equal keys get
// equal oracle answers on every candidate, so the greedy pass reduces them
// to the same size.
func (s *Shrinker) memoKey(property string, prelude []trace.Event, prefix []group) []byte {
	b := append(s.key[:0], property...)
	b = append(b, 0)
	appendRun := func(events []trace.Event) {
		for _, e := range events {
			if e.Kind.IsOp() || e.Kind == trace.KindDecision {
				b = trace.AppendEvent(b, e)
			}
		}
	}
	appendRun(prelude)
	for _, g := range prefix {
		appendRun(g.events)
	}
	s.key = b
	return b
}

// oracle is a shrink-preservation predicate over candidate kept sets.
type oracle struct {
	// property is the preserved violation property.
	property string
	// name identifies the oracle in ShrinkResult.Oracle.
	name string
	// prefixPass enables the binary-search prefix-truncation pass; sound
	// only for prefix-monotone properties (safety).
	prefixPass bool
	// holds reports whether the candidate prelude plus keep still exhibits
	// the violation.
	holds func(prelude []trace.Event, keep []group) bool
}

// safetyOracle preserves a specific safety property through the pooled
// re-drive.
func (s *Shrinker) safetyOracle(property string) oracle {
	return oracle{
		property:   property,
		name:       "safety",
		prefixPass: true,
		holds: func(prelude []trace.Event, keep []group) bool {
			if _, err := s.drive(prelude, keep); err != nil {
				return false
			}
			v, _ := ioa.AsViolation(s.check.Safety())
			return v != nil && v.Property == property
		},
	}
}

// livenessOracle preserves a quiescent-DL3 failure under the given closing
// drive: the driven candidate must strand a message while staying
// safety-clean (a candidate that decays into a safety violation is a
// different counterexample, not a smaller version of this one). The closing
// drive runs on a candidate log carrying meta.
func livenessOracle(meta map[string]string, mode DriveMode) oracle {
	return oracle{
		property:   "DL3",
		name:       "DL3-" + mode.String(),
		prefixPass: false,
		holds: func(prelude []trace.Event, keep []group) bool {
			out, err := CloseDrive(candidate(meta, prelude, keep), mode, 0)
			return err == nil && out.Safety == nil && out.DL3 != nil
		},
	}
}

// candidate assembles the trace log of prelude plus keep under meta.
func candidate(meta map[string]string, prelude []trace.Event, keep []group) *trace.Log {
	c := trace.NewLog(meta)
	c.Events = append(c.Events, prelude...)
	for _, g := range keep {
		c.Events = append(c.Events, g.events...)
	}
	return c
}

// shrinkWith minimizes l, segmented into prelude and groups, against o,
// giving up with ErrNotSmaller once the result is known to keep at least
// below operations. The caller has already established that o holds on the
// whole of l.
func (s *Shrinker) shrinkWith(l *trace.Log, prelude []trace.Event, groups []group, o oracle, below int, res *ShrinkResult) (*ShrinkResult, error) {
	res.Property = o.property
	res.Oracle = o.name

	violates := func(keep []group) bool {
		res.Replays++
		return o.holds(prelude, keep)
	}

	kept := append([]group(nil), groups...)
	var key string
	if o.prefixPass {
		// Pass 1: minimal violating prefix, by binary search. Invariant:
		// violates(groups[:hi]) is true, violates(groups[:lo-1])
		// unknown-or-false. Sound only for prefix-monotone properties.
		lo, hi := 1, len(groups)
		for lo < hi {
			mid := (lo + hi) / 2
			if violates(groups[:mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		kept = append([]group(nil), groups[:hi]...)
		// Pass 2 is a function of this prefix alone: a prefix already
		// reduced to at least below operations cannot beat the bound.
		key = string(s.memoKey(o.property, prelude, kept))
		if n, ok := s.memo[key]; ok && n >= below {
			return nil, ErrNotSmaller
		}
	}

	// Pass 2: greedy single-group removal to a fixpoint, latest group first.
	for changed := true; changed; {
		changed = false
		for i := len(kept) - 1; i >= 0; i-- {
			trial := make([]group, 0, len(kept)-1)
			trial = append(trial, kept[:i]...)
			trial = append(trial, kept[i+1:]...)
			if violates(trial) {
				kept = trial
				changed = true
			}
		}
	}
	if o.prefixPass {
		s.memo[key] = len(kept)
	}
	// Run counts one operation per kept group, so the bound is decided
	// before re-recording.
	if len(kept) >= below {
		return nil, ErrNotSmaller
	}

	final, err := Run(candidate(l.Meta, prelude, kept))
	res.Replays++
	if err != nil {
		return nil, fmt.Errorf("replay: re-recording shrunk trace: %w", err)
	}
	if v, _ := final.Log.Verdict(); v == nil || v.Property != res.Property {
		// Cannot happen: the kept set passed violates() above and the
		// re-drive is deterministic. Guard anyway rather than emit a
		// non-counterexample.
		return nil, fmt.Errorf("replay: shrunk trace lost the %s violation on re-recording", res.Property)
	}
	res.Log = final.Log
	res.FinalEvents = final.Log.Len()
	res.FinalOps = final.Ops
	return res, nil
}

// Shrink minimizes a violating trace with no bound; see (*Shrinker).Shrink.
func Shrink(l *trace.Log) (*ShrinkResult, error) {
	return NewShrinker().Shrink(l, math.MaxInt)
}

// Shrink minimizes a violating trace, picking the oracle automatically: a
// safety violation is preserved through the pooled re-drive; failing that, a
// quiescent-DL3 failure is preserved through the reliable closing drive (a
// genuine protocol livelock) or, failing that, the adversarial one (a
// stranded-message schedule a correct protocol would recover from). It
// fails if the trace violates nothing under any oracle (there is nothing to
// preserve), and returns ErrNotSmaller, without re-recording, when the
// minimized trace keeps at least below operations.
func (s *Shrinker) Shrink(l *trace.Log, below int) (*ShrinkResult, error) {
	res := &ShrinkResult{OriginalEvents: l.Len()}

	if err := s.bind(l); err != nil {
		return nil, err
	}
	prelude, groups := segment(l)
	ops, err := s.drive(prelude, groups)
	if err != nil {
		return nil, err
	}
	res.Replays++
	res.OriginalOps = ops
	if v, _ := ioa.AsViolation(s.check.Safety()); v != nil {
		return s.shrinkWith(l, prelude, groups, s.safetyOracle(v.Property), below, res)
	}
	for _, mode := range []DriveMode{DriveReliable, DriveAdversarial} {
		o := livenessOracle(l.Meta, mode)
		res.Replays++
		if o.holds(prelude, groups) {
			return s.shrinkWith(l, prelude, groups, o, below, res)
		}
	}
	return nil, fmt.Errorf("replay: trace violates no safety property and strands no message when replayed; nothing to shrink")
}

// ShrinkLiveness minimizes a trace against the quiescent-DL3 oracle of the
// given drive mode, refusing traces that do not exhibit a safety-clean DL3
// failure under that mode. The fuzzer's livelock promotion uses it with
// DriveReliable so the minimized schedule still livelocks — not merely
// strands — before certification.
func ShrinkLiveness(l *trace.Log, mode DriveMode) (*ShrinkResult, error) {
	res := &ShrinkResult{OriginalEvents: l.Len()}

	full, err := Run(l)
	if err != nil {
		return nil, err
	}
	res.Replays++
	res.OriginalOps = full.Ops
	if full.Verdict != nil {
		return nil, fmt.Errorf("replay: trace violates %s; ShrinkLiveness preserves safety-clean DL3 failures only (use Shrink)", full.Verdict.Property)
	}
	o := livenessOracle(l.Meta, mode)
	prelude, groups := segment(l)
	res.Replays++
	if !o.holds(prelude, groups) {
		return nil, fmt.Errorf("replay: trace does not fail quiescent DL3 under the %s closing drive; nothing to shrink", mode)
	}
	return NewShrinker().shrinkWith(l, prelude, groups, o, math.MaxInt, res)
}
