package verify

import (
	"fmt"

	"repro/internal/replay"
	"repro/internal/trace"
)

// DL3 as a graph property: after an exhaustive exploration, a configuration
// that strands a message (submitted > delivered) and cannot reach any
// progress edge is a no-progress region — the adversary can park the system
// there forever *within the explored discipline*. That alone is not the
// paper's livelock: under a fully adversarial channel every protocol
// strands messages, and the paper's DL3 blames the protocol only when it
// fails under the optimal closure ("the physical layer starts behaving in
// the optimal way"). So stranded candidates are confirmed, not trusted: the
// witness prefix is re-driven and handed to replay.CertifyLivelock, which
// drives the reliable closing extension and issues a pumping-lemma
// certificate only if the protocol itself loops through a repeated joint
// configuration without delivering. Candidates that recover under the
// reliable drive are artifacts of the occupancy cap, reported but not
// violations.

// strandedCandidates returns, in BFS order, the nodes that strand a message
// and cannot reach a delivery-count-increasing edge in the explored graph.
func (e *explorer) strandedCandidates() []int32 {
	good := make([]bool, len(e.parents))
	radj := make([][]int32, len(e.parents))
	var stack []int32
	for _, ed := range e.edges {
		radj[ed.to] = append(radj[ed.to], ed.from)
		if ed.progress && !good[ed.from] {
			good[ed.from] = true
			stack = append(stack, ed.from)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range radj[n] {
			if !good[m] {
				good[m] = true
				stack = append(stack, m)
			}
		}
	}
	var out []int32
	for id := range e.parents {
		if good[id] {
			continue
		}
		stranded := e.nodes[id].submitted > e.nodes[id].delivered
		if e.cfg.Stabilize {
			// Corrupted runs also deliver garbage and duplicates, which
			// inflate the delivery count without progress; a message is
			// stranded when the clean frontier has not passed it.
			stranded = e.nodes[id].submitted > e.nodes[id].frontier
		}
		if stranded {
			out = append(out, int32(id))
		}
	}
	return out
}

// dl3Finding is a confirmed DL3 witness: a pumped livelock certificate or a
// deadlock schedule, either one re-judged DL3 by an ordinary replay.
type dl3Finding struct {
	detail  string
	witness *trace.Log
}

// confirmLivelock tries to confirm a DL3 violation from the stranded
// candidates, in BFS order (shallowest witness first), attempting at most
// tries of them. Each candidate's prefix is closed by the reliable drive
// (replay.CloseDriveAs) and accepted in one of two shapes:
//
//   - a deadlock: the drive goes quiescent — the transmitter idle, nothing
//     left to send — with a message still undelivered. No extension
//     delivers it, so the stall is a permanent DL3 violation without any
//     cycle to pump. Clean mode only: corrupted starts answer to the
//     amnesty judge, which the closing drive does not apply.
//   - a livelock: the drive repeats a joint configuration without
//     delivering, and replay.CertifyLivelockAs issues the pumping-lemma
//     certificate.
//
// Both confirmations drive e.proto itself, so protocols outside replay's
// name registry confirm the same way. It returns nil when every attempted
// candidate recovers under the reliable drive.
func (e *explorer) confirmLivelock(cands []int32, tries int) (*dl3Finding, int, error) {
	if tries <= 0 {
		tries = 3
	}
	attempted := 0
	for _, id := range cands {
		if attempted >= tries {
			break
		}
		attempted++
		moves, root := e.chain(id, nil)
		wl, err := e.witnessLog(moves, root)
		if err != nil {
			return nil, attempted, err
		}
		out, err := replay.CloseDriveAs(wl, e.proto, replay.DriveReliable, e.cfg.DriveBudget)
		if err != nil || out.Safety != nil || out.DL3 == nil {
			// The candidate recovers under the reliable closing drive (or
			// its closure is not a clean liveness failure): try the next.
			continue
		}
		if out.Quiescent {
			if e.cfg.Stabilize {
				continue
			}
			if rl := e.confirmDL3(out.Log); rl != nil {
				rl.SetMeta(trace.MetaSource, "verify-deadlock")
				return &dl3Finding{detail: fmt.Sprintf(
					"deadlock: %d of %d message(s) delivered and the transmitter idle under the reliable closing drive; no extension delivers the rest",
					out.Delivered, out.Submitted), witness: rl}, attempted, nil
			}
			continue
		}
		cert, err := replay.CertifyLivelockAs(wl, e.proto, replay.CertifyOptions{
			DriveBudget: e.cfg.DriveBudget,
			Pump:        e.cfg.Pump,
		})
		if err != nil {
			// Stranded but no certifiable cycle within the drive budget.
			continue
		}
		if rl := e.confirmDL3(cert.Pumped(e.cfg.Pump)); rl != nil {
			return &dl3Finding{detail: cert.DL3.Detail, witness: rl}, attempted, nil
		}
	}
	return nil, attempted, nil
}

// confirmDL3 re-derives a DL3 witness's verdict through an ordinary replay,
// so the returned artifact is confirmed the same way safety witnesses are:
// zero divergence, safety-clean, and still failing the quiescent DL3 check.
// It returns the replay's re-recorded log, or nil when the witness does not
// reproduce.
func (e *explorer) confirmDL3(l *trace.Log) *trace.Log {
	rr, err := replay.RunAs(l, e.proto)
	if err != nil || rr.Divergence != nil || rr.Verdict != nil || rr.DL3 == nil {
		return nil
	}
	return rr.Log
}
