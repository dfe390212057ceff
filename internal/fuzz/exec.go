package fuzz

import (
	"repro/internal/ioa"
	"repro/internal/stabilize"
	"repro/internal/trace"
)

// ExecResult is the phenotype of one input: what happened when its schedule
// was driven against a fresh protocol instance.
type ExecResult struct {
	// Points are the coverage points observed after each operation, in
	// order (duplicates included; sets are the caller's business).
	Points []uint64
	// Verdict is the safety violation of the executed trace (PL1 either
	// direction, DL1, DL2), nil if safe.
	Verdict *ioa.Violation
	// DL3 is the quiescent-liveness violation, nil if every submitted
	// message was delivered. It is reported separately because almost every
	// random schedule strands messages — it guides nothing.
	DL3 *ioa.Violation
	// Log is the re-recordable NFT event log of the execution; nil unless
	// requested. A promoted input's Log is what gets shrunk and written as
	// a certificate.
	Log *trace.Log
	// DataUsed and AckUsed count the decisions actually consumed per
	// channel; Trim uses them to cut dead genotype tails.
	DataUsed, AckUsed int
	// StaleHits counts OpStale operations that found a copy to deliver.
	StaleHits int
	// Corruption is the resolved corrupted start (zero/clean when the input
	// carries no gene or the protocol declares no corruption space), and
	// Amnesty/Charges are the fault budget it bought and the faults the
	// amnesty judge charged the run. Verdict/DL3 on a corrupted run are the
	// judge's over-amnesty violations, not the clean-start checkers'.
	Corruption stabilize.Corruption
	Amnesty    int
	Charges    int
}

// Trim returns the input with unconsumed decision-stream tails removed, as
// measured by the execution res. Trimming changes nothing about the
// execution (unread decisions decide nothing) but keeps corpus genotypes at
// their live length, so mutation energy lands on bytes that matter.
func Trim(in *Input, res *ExecResult) *Input {
	if res.DataUsed >= len(in.Data) && res.AckUsed >= len(in.Ack) {
		return in
	}
	c := in.Clone()
	if res.DataUsed < len(c.Data) {
		c.Data = c.Data[:res.DataUsed]
	}
	if res.AckUsed < len(c.Ack) {
		c.Ack = c.Ack[:res.AckUsed]
	}
	return c
}
