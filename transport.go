package nonfifo

import (
	"repro/internal/adversary"
	"repro/internal/transport"
)

// Transport layer (see internal/transport): the paper's closing remark,
// "all our results can be extended to transport layer protocols over
// non-FIFO virtual links".
type (
	// SlidingWindowProtocol is a sliding window transport protocol over a
	// non-FIFO virtual link.
	SlidingWindowProtocol = transport.SlidingWindow
)

// SlidingWindow returns a sliding window transport protocol with sequence
// space size s (0 = unbounded) and window w. Finite sequence spaces are
// breakable over non-FIFO virtual links — the transport-layer face of
// Theorem 3.1 — while the unbounded variant is safe.
func SlidingWindow(s, w int) SlidingWindowProtocol { return transport.New(s, w) }

// GoBackN returns a go-back-N transport protocol (no receive buffer,
// cumulative acks) with sequence space size s (0 = unbounded) and window
// w. Like SlidingWindow, any finite sequence space is breakable over a
// non-FIFO virtual link; the cumulative-ack aliasing can additionally
// deadlock, the shape Verify's DL3 pass checks for.
func GoBackN(s, w int) Protocol { return transport.NewGoBackN(s, w) }

// AdaptedTransport is a transport endpoint pair wrapped as an auditable
// protocol: same name, same packets, same StateKeys, plus declared Bounds
// and a mod-S ControlKey quotient that makes the joint control space finite
// for S > 0.
type AdaptedTransport = transport.Adapted

// AdaptTransport wraps a SlidingWindow or GoBackN protocol for the static
// boundness audit (AuditProtocol, AuditSweep, `nfvet audit`). The wrapped
// form is behaviour-identical to the native one — the differential
// conformance harness (internal/conformance) holds it to that, event for
// event, on recorded schedules including pumped livelock certificates.
func AdaptTransport(p Protocol) (AdaptedTransport, error) { return transport.Adapt(p) }

// Induction machinery (the instrumented Theorem 3.1 construction).
type (
	// InductionPhase is one step of the accumulation history.
	InductionPhase = adversary.InductionPhase
	// InductionReport is the outcome of the construction.
	InductionReport = adversary.InductionReport
)

// Induction runs the proof of Theorem 3.1 as an adaptive, instrumented
// procedure: strand `target` copies of every data header the protocol
// uses, then simulate a closing extension out of the stale copies.
func Induction(p Protocol, target, maxMessages int, cfg ReplayConfig) (InductionReport, error) {
	return adversary.Induction(p, target, maxMessages, cfg)
}
