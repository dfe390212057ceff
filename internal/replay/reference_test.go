package replay

// The log-plus-Run shrink the pooled Shrinker replaced, kept as the
// reference the Shrinker is held to. Every reference candidate is rebuilt as
// a trace.Log and re-judged by Run (safety) or CloseDrive (liveness): the
// slow, obviously faithful form of the oracle. The differential tests in
// shrink_diff_test.go (package replay_test, so they can draw logs from the
// fuzz campaign, the prover and the soak server) use the two exported
// helpers below.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/trace"
)

// refOracle is the reference's preservation predicate over candidate logs.
type refOracle struct {
	property, name string
	prefixPass     bool
	holds          func(*trace.Log) bool
}

func refSafetyOracle(property string) refOracle {
	return refOracle{
		property:   property,
		name:       "safety",
		prefixPass: true,
		holds: func(c *trace.Log) bool {
			r, err := Run(c)
			return err == nil && r.Verdict != nil && r.Verdict.Property == property
		},
	}
}

func refLivenessOracle(mode DriveMode) refOracle {
	return refOracle{
		property: "DL3",
		name:     "DL3-" + mode.String(),
		holds: func(c *trace.Log) bool {
			out, err := CloseDrive(c, mode, 0)
			return err == nil && out.Safety == nil && out.DL3 != nil
		},
	}
}

// refSegment is the reference's own operation-group split, one appended
// group at a time.
func refSegment(l *trace.Log) (prelude []trace.Event, groups []group) {
	for _, e := range l.Events {
		if e.Kind == trace.KindVerdict {
			continue
		}
		if e.Kind.IsOp() {
			groups = append(groups, group{events: []trace.Event{e}})
			continue
		}
		if len(groups) == 0 {
			prelude = append(prelude, e)
			continue
		}
		g := &groups[len(groups)-1]
		g.events = append(g.events, e)
	}
	return prelude, groups
}

func refShrinkWith(l *trace.Log, o refOracle, res *ShrinkResult) (*ShrinkResult, error) {
	res.Property = o.property
	res.Oracle = o.name
	prelude, groups := refSegment(l)
	violates := func(keep []group) bool {
		res.Replays++
		return o.holds(candidate(l.Meta, prelude, keep))
	}
	kept := append([]group(nil), groups...)
	if o.prefixPass {
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
	}
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
	final, err := Run(candidate(l.Meta, prelude, kept))
	res.Replays++
	if err != nil {
		return nil, fmt.Errorf("replay: re-recording shrunk trace: %w", err)
	}
	if v, _ := final.Log.Verdict(); v == nil || v.Property != res.Property {
		return nil, fmt.Errorf("replay: shrunk trace lost the %s violation on re-recording", res.Property)
	}
	res.Log = final.Log
	res.FinalEvents = final.Log.Len()
	res.FinalOps = final.Ops
	return res, nil
}

// RefShrink is the reference shrink: Shrink as it stood before the pooled
// oracle, with every candidate re-recorded through Run.
func RefShrink(l *trace.Log) (*ShrinkResult, error) {
	res := &ShrinkResult{OriginalEvents: l.Len()}
	full, err := Run(l)
	if err != nil {
		return nil, err
	}
	res.Replays++
	res.OriginalOps = full.Ops
	if full.Verdict != nil {
		return refShrinkWith(l, refSafetyOracle(full.Verdict.Property), res)
	}
	for _, mode := range []DriveMode{DriveReliable, DriveAdversarial} {
		o := refLivenessOracle(mode)
		res.Replays++
		if o.holds(l) {
			return refShrinkWith(l, o, res)
		}
	}
	return nil, fmt.Errorf("replay: trace violates no safety property and strands no message when replayed; nothing to shrink")
}

// CheckSafetyOracle runs the Shrinker's own minimization loop over a
// safety-violating l with every pooled-oracle answer checked against
// Run(candidate).Verdict.Property, and returns how many candidates were
// checked. It reports the first disagreement as an error, and a log that
// Run does not judge unsafe as zero candidates.
func CheckSafetyOracle(l *trace.Log) (int, error) {
	full, err := Run(l)
	if err != nil || full.Verdict == nil {
		return 0, err
	}
	s := NewShrinker()
	if err := s.bind(l); err != nil {
		return 0, err
	}
	o := s.safetyOracle(full.Verdict.Property)
	pooled := o.holds
	n := 0
	var disagree error
	o.holds = func(prelude []trace.Event, keep []group) bool {
		n++
		got := pooled(prelude, keep)
		r, err := Run(candidate(l.Meta, prelude, keep))
		want := err == nil && r.Verdict != nil && r.Verdict.Property == o.property
		if got != want && disagree == nil {
			disagree = fmt.Errorf("candidate %d (%d groups): pooled oracle %v, Run %v (err %v)", n, len(keep), got, want, err)
		}
		return want
	}
	prelude, groups := segment(l)
	if _, err := s.shrinkWith(l, prelude, groups, o, math.MaxInt, &ShrinkResult{}); err != nil && !errors.Is(err, ErrNotSmaller) {
		return n, err
	}
	return n, disagree
}
