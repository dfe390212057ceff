// Package bound makes the paper's boundness notion (Mansour & Schieber,
// PODC '89, Section 2.3) executable.
//
// A protocol is k-bounded if every semi-valid execution α has an extension
// β such that αβ is valid, β delivers no packet sent during α, and
// sp^{t→r}(β) ≤ k. The definitional extension is exactly a run in which
// "the physical layer starts behaving in the optimal way": every fresh
// packet is delivered immediately and nothing old is ever delivered.
// ClosingCost runs that extension and counts sp^{t→r}(β); M_f- and
// P_f-boundness (Definitions 5 and 6) are then measured curves over
// families of semi-valid executions.
//
// The Theorem 2.1 check compares a measured boundness against the k_t·k_r
// product of control-state counts, which the exhaustive boundness audit
// (internal/analyze) supplies.
package bound

import (
	"errors"
	"fmt"

	"repro/internal/channel"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// ErrBudget is returned when a closing extension does not complete within
// the step budget — operationally, the semi-valid execution could not be
// closed, which for a correct protocol means the budget was too small and
// for a broken one means a liveness violation.
var ErrBudget = errors.New("bound: closing extension exceeded budget")

// ClosingCost measures sp^{t→r}(β) of the definitional closing extension:
// starting from the runner's current state (which must be semi-valid — one
// message outstanding), run under optimal-from-now channel behaviour until
// the transmitter is idle, delivering no packet that is currently in
// transit. The runner is forked; the caller's state is untouched.
func ClosingCost(r *sim.Runner, budget int) (int, error) {
	f := r.Fork(channel.Reliable(), channel.Reliable())
	if !f.T.Busy() {
		return 0, nil
	}
	start := f.Result().Metrics.TotalDataPackets
	for steps := 0; f.T.Busy(); steps++ {
		if steps >= budget {
			return 0, fmt.Errorf("%w (%d steps)", ErrBudget, budget)
		}
		progressed := f.StepTransmit()
		f.DrainAcks()
		if !progressed && f.T.Busy() {
			return 0, fmt.Errorf("%w: transmitter busy with no enabled output", ErrBudget)
		}
	}
	return f.Result().Metrics.TotalDataPackets - start, nil
}

// Sample is one measured point of a boundness curve.
type Sample struct {
	// MessagesDelivered is rm(α) of the semi-valid execution (Definition
	// 5's parameter).
	MessagesDelivered int
	// InTransit is sp^{t→r}(α) − rp^{t→r}(α) (Definition 6's parameter).
	InTransit int
	// Cost is sp^{t→r}(β) of the closing extension.
	Cost int
}

// MeasureMf measures the M_f-boundness curve of a protocol: for each
// i < n, construct the semi-valid execution that delivers i messages over a
// reliable channel and then submits message i+1, and record the closing
// cost. For an M_f-bounded protocol the curve is the tightest admissible f.
func MeasureMf(p protocol.Protocol, n, budget int) ([]Sample, error) {
	out := make([]Sample, 0, n)
	r := sim.NewRunner(sim.Config{Protocol: p})
	for i := 0; i < n; i++ {
		r.SubmitMsg("m")
		cost, err := ClosingCost(r, budget)
		if err != nil {
			return out, fmt.Errorf("after %d messages: %w", i, err)
		}
		out = append(out, Sample{MessagesDelivered: i, Cost: cost})
		if err := r.RunToIdle(); err != nil {
			return out, fmt.Errorf("delivering message %d: %w", i, err)
		}
	}
	return out, nil
}

// MeasurePf measures the P_f-boundness curve: for each requested in-transit
// level L, build a semi-valid execution with L packets delayed on the t→r
// channel (using the delay-then-flood construction) and record the closing
// cost of the next message. The curve demonstrates Theorem 4.1's shape:
// bounded-header protocols pay Ω(L/k), the naive protocol pays O(1).
func MeasurePf(p protocol.Protocol, levels []int, budget int) ([]Sample, error) {
	out := make([]Sample, 0, len(levels))
	for _, l := range levels {
		r, err := BuildInTransit(p, l, budget)
		if err != nil {
			return out, fmt.Errorf("level %d: %w", l, err)
		}
		// The stranded copies belong to the bit-0 phase; measure the next
		// same-bit message (two messages later). Deliver the bit-1 message
		// first over a clean channel.
		if err := r.RunMessage("m"); err != nil {
			return out, fmt.Errorf("level %d interleave: %w", l, err)
		}
		inTransit := r.ChData.InTransit()
		r.SubmitMsg("m")
		cost, err := ClosingCost(r, budget)
		if err != nil {
			return out, fmt.Errorf("level %d closing: %w", l, err)
		}
		out = append(out, Sample{InTransit: inTransit, Cost: cost})
	}
	return out, nil
}

// BuildInTransit produces a runner whose t→r channel holds at least l
// delayed packets while the transmitter is idle, by delaying the first l
// data copies of the first message and letting the protocol finish over an
// otherwise reliable channel. The returned runner has reliable policies
// installed. This is the "packets delayed on the channel" precondition of
// Theorem 4.1.
func BuildInTransit(p protocol.Protocol, l, budget int) (*sim.Runner, error) {
	r := sim.NewRunner(sim.Config{
		Protocol:   p,
		DataPolicy: channel.DelayFirst(l),
		StepBudget: budget,
	})
	if err := r.RunMessage("m"); err != nil {
		return nil, fmt.Errorf("bound: building %d in-transit copies: %w", l, err)
	}
	if got := r.ChData.InTransit(); got < l {
		return nil, fmt.Errorf("bound: only %d of %d copies stranded", got, l)
	}
	r.SetPolicies(channel.Reliable(), channel.Reliable())
	return r, nil
}
