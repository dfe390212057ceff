package nonfifo

import (
	"fmt"

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
// Theorem 3.1 — while the unbounded variant is safe. Its endpoints carry the
// mod-S ControlKey quotient and the protocol declares Bounds, so
// AuditProtocol certifies a finite sequence space directly.
func SlidingWindow(s, w int) SlidingWindowProtocol { return transport.New(s, w) }

// GoBackN returns a go-back-N transport protocol (no receive buffer,
// cumulative acks) with sequence space size s (0 = unbounded) and window
// w. Like SlidingWindow, any finite sequence space is breakable over a
// non-FIFO virtual link; the cumulative-ack aliasing can additionally
// deadlock, the shape Verify's DL3 pass checks for.
func GoBackN(s, w int) Protocol { return transport.NewGoBackN(s, w) }

// AdaptTransport returns a SlidingWindow or GoBackN protocol unchanged and
// an error for any other protocol. The transport protocols carry their
// mod-S control-key quotient and Bounds declaration themselves, so there is
// nothing left to wrap.
//
// Deprecated: pass the transport protocol directly.
func AdaptTransport(p Protocol) (Protocol, error) {
	switch p.(type) {
	case transport.SlidingWindow, transport.GoBackN:
		return p, nil
	default:
		return nil, fmt.Errorf("nonfifo: cannot adapt %T (want SlidingWindow or GoBackN)", p)
	}
}

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
