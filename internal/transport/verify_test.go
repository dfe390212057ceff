package transport_test

// The bounded prover's verdicts on the transport protocols. These tests
// live in the external test package because verify confirms witnesses
// through replay, which resolves transport names: an in-package test
// importing verify would close the import cycle transport → verify →
// replay → transport.

import (
	"testing"

	"repro/internal/replay"
	"repro/internal/transport"
	"repro/internal/verify"
)

// TestExplorerBreaksBoundedVariants is the transport-layer Theorem 3.1:
// every finite sequence space falls to exhaustive channel nondeterminism.
func TestExplorerBreaksBoundedVariants(t *testing.T) {
	for _, p := range []transport.SlidingWindow{transport.New(2, 1), transport.New(3, 1)} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			rep, err := verify.Run(p, verify.Config{MaxMessages: p.S + 1})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Verdict != verify.VerdictViolated || !rep.WitnessConfirmed {
				t.Fatalf("bounded sequence space should be breakable: %s %v", rep.Verdict, rep.Failures)
			}
			rr, err := replay.RunAs(rep.Witness, p)
			if err != nil {
				t.Fatal(err)
			}
			if rr.Verdict == nil {
				t.Fatal("witness passes the checkers on replay")
			}
		})
	}
}

// TestExplorerUnboundedSafe: the unbounded variant survives the same
// exhaustive adversary.
func TestExplorerUnboundedSafe(t *testing.T) {
	rep, err := verify.Run(transport.New(0, 2), verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != verify.VerdictProved || !rep.Exhausted {
		t.Fatalf("unbounded swindow should be PROVED: %s (%s)", rep.Verdict, rep.Detail)
	}
}

func TestGBNExplorerBreaksBoundedVariant(t *testing.T) {
	rep, err := verify.Run(transport.NewGoBackN(2, 1), verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != verify.VerdictViolated || !rep.WitnessConfirmed {
		t.Fatalf("finite sequence space should be breakable: %s %v", rep.Verdict, rep.Failures)
	}
}

// TestGBNExplorerUnboundedSafe: the unbounded go-back-N protocol is PROVED,
// which covers liveness too — no stranded candidate deadlocks or livelocks.
func TestGBNExplorerUnboundedSafe(t *testing.T) {
	rep, err := verify.Run(transport.NewGoBackN(0, 2), verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != verify.VerdictProved || !rep.Exhausted {
		t.Fatalf("unbounded gbn should be safe and live: %s (%s)", rep.Verdict, rep.Detail)
	}
}

// TestGBNStaleAckDeadlock: the sender-side alias. With S=2 and window 1, a
// stale cumulative ack from a previous wrap can confirm a segment the
// receiver never accepted; the window slides, the channels drain, and
// delivery is permanently stuck — unless the receiver-side alias breaks
// safety first. Either way the bounded space holds a confirmed violation.
// Over FIFO neither alias exists (stale copies cannot overtake), and the
// same bounds are PROVED.
func TestGBNStaleAckDeadlock(t *testing.T) {
	p := transport.NewGoBackN(2, 1)
	rep, err := verify.Run(p, verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != verify.VerdictViolated || !rep.WitnessConfirmed {
		t.Fatalf("expected a violation (safety alias or ack-alias deadlock), got %s %v", rep.Verdict, rep.Failures)
	}
	fifo, err := verify.Run(p, verify.Config{FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	if fifo.Verdict != verify.VerdictProved {
		t.Fatalf("over FIFO: %s (%s) %q", fifo.Verdict, fifo.Property, fifo.Detail)
	}
}
