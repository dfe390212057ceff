// Package nonfifo is a library reproduction of Mansour & Schieber, "The
// Intractability of Bounded Protocols for Non-FIFO Channels" (PODC 1989).
//
// It provides:
//
//   - the paper's communication model as an executable simulation — non-FIFO
//     and probabilistic physical channels, data link endpoint automata, and
//     trace checkers for the correctness properties PL1, DL1, DL2, DL3;
//   - a family of data link protocols spanning the paper's design space:
//     the naive unbounded-header protocol, the alternating bit protocol,
//     and genie-aided counting protocols in the style of [Afe88] and
//     [AFWZ88] (plus deliberately under-provisioned "cheat" variants);
//   - the paper's lower-bound constructions as attack procedures that emit
//     machine-checkable violation certificates (replay, pumping,
//     header-budget);
//   - an execution trace subsystem: record any run as a compact,
//     self-describing event log, replay it deterministically, and
//     delta-debug violating logs to minimal counterexamples (see
//     cmd/nftrace for the command-line pipeline);
//   - a coverage-guided parallel fuzzer over the channel decision streams
//     that discovers violating executions automatically and emits them as
//     shrunk replayable certificates (see cmd/nffuzz);
//   - boundness measurement per the paper's Definitions 5 and 6;
//   - sliding window and go-back-N transport protocols over non-FIFO
//     virtual links, realising the paper's closing remark that the results
//     extend to the transport layer;
//   - a bounded reachability prover (Verify, `nfvet verify`) that exhausts
//     the channel nondeterminism within an occupancy cap and message bound —
//     over the paper's non-FIFO discipline or, with VerifyConfig.FIFO, the
//     contrasting lossy-FIFO one — and either PROVES DL-safety and liveness
//     there, emitting a machine-readable proof artifact, or produces a
//     shortest replay-confirmed NFT counterexample;
//   - a self-stabilization subsystem (EnumerateCorruptions, Amnesty,
//     `nfvet verify -stabilize`, `nffuzz -corrupt`) that drops the paper's
//     clean-start assumption: corrupted initial configurations are
//     enumerated, fuzzed, and exhaustively explored,
//     and convergence back to DL1–DL3 within a finite fault amnesty is
//     proved or refuted with replayable witnesses; and
//   - the experiment suite E0–E9 that reproduces each theorem's predicted
//     shape (see DESIGN.md and EXPERIMENTS.md).
//
// # Quickstart
//
//	r := nonfifo.NewRunner(nonfifo.Config{
//		Protocol:    nonfifo.SeqNum(),
//		DataPolicy:  nonfifo.Probabilistic(0.25, rand.New(rand.NewSource(1))),
//		RecordTrace: true,
//	})
//	res := r.Run(10)
//	if err := nonfifo.CheckValid(res.Trace); err != nil { ... }
//
// See examples/ for complete programs.
package nonfifo

import (
	"io"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/analyze"
	"repro/internal/bound"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/stabilize"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Model types (see internal/ioa).
type (
	// Packet is an element of the physical layer alphabet P.
	Packet = ioa.Packet
	// Message is an element of the data link alphabet M.
	Message = ioa.Message
	// Event is one execution action.
	Event = ioa.Event
	// Trace is a finite execution.
	Trace = ioa.Trace
	// Counters are the action counts of the paper's Definition 2.
	Counters = ioa.Counters
	// Violation is a failed correctness property with its location.
	Violation = ioa.Violation
	// Dir identifies one of the two physical channels.
	Dir = ioa.Dir
)

// Channel directions.
const (
	TtoR = ioa.TtoR
	RtoT = ioa.RtoT
)

// Channel machinery (see internal/channel).
type (
	// Policy decides the fate of each sent packet.
	Policy = channel.Policy
	// Decision is a policy verdict.
	Decision = channel.Decision
	// NonFIFO is the non-FIFO physical channel.
	NonFIFO = channel.NonFIFO
	// Genie is the stale-copy oracle available to counting protocols.
	Genie = channel.Genie
)

// Policy verdicts.
const (
	DeliverNow = channel.DeliverNow
	Delay      = channel.Delay
	Drop       = channel.Drop
)

// Policies (channel behaviours).
var (
	// Reliable delivers every packet immediately (the optimal behaviour
	// of the boundness definitions).
	Reliable = channel.Reliable
	// DelayAll delays every packet.
	DelayAll = channel.DelayAll
	// DelayFirst delays the first n packets, then delivers.
	DelayFirst = channel.DelayFirst
	// DelayPerHeader delays the first n copies of each distinct header.
	DelayPerHeader = channel.DelayPerHeader
	// DropEvery drops every k-th packet.
	DropEvery = channel.DropEvery
	// Script replays a fixed decision sequence.
	Script = channel.Script
)

// Probabilistic is the probabilistic physical layer of the paper's
// Section 5 (property PL2p): each packet is delivered immediately with
// probability 1−q and delayed otherwise.
func Probabilistic(q float64, rng *rand.Rand) Policy { return channel.Probabilistic(q, rng) }

// ProbabilisticDrop loses (rather than delays) each packet with
// probability q.
func ProbabilisticDrop(q float64, rng *rand.Rand) Policy { return channel.ProbabilisticDrop(q, rng) }

// Protocol machinery (see internal/protocol).
type (
	// Protocol describes a data link protocol.
	Protocol = protocol.Protocol
	// Transmitter is the automaton A^t.
	Transmitter = protocol.Transmitter
	// Receiver is the automaton A^r.
	Receiver = protocol.Receiver
)

// SeqNum returns the naive protocol: the i-th message uses the i-th header;
// n headers, O(log n) space, O(1) packets per message.
func SeqNum() Protocol { return protocol.NewSeqNum() }

// AltBit returns the alternating bit protocol [BSW69]: 4 headers,
// finite-state, unsafe over non-FIFO channels.
func AltBit() Protocol { return protocol.NewAltBit() }

// CntLinear returns the Afek-style genie counting protocol: 4 headers,
// Θ(packets-in-transit) packets per message (Theorem 4.1's tight shape).
func CntLinear() Protocol { return protocol.NewCntLinear() }

// CntExp returns the AFWZ-style pessimistic counting protocol: 4 headers,
// packet cost exponential in the number of messages even on a perfect
// channel.
func CntExp() Protocol { return protocol.NewCntExp() }

// Cheat returns CntLinear with its acceptance threshold lowered by d; for
// any d ≥ 1 the replay adversary produces a violation certificate
// (Theorem 4.1's mechanism).
func Cheat(d int) Protocol { return protocol.NewCheat(d) }

// CntK returns the K-cycling-header counting protocol (2K headers): with
// L stale packets spread over its headers, a message costs ≈ L/K + 1
// packets — Theorem 4.1's 1/k factor as a dial (see experiment E10).
func CntK(k int) Protocol { return protocol.NewCntK(k) }

// CntNoBind returns the payload-binding ablation of CntLinear: the
// acceptance threshold pools all same-bit copies regardless of payload, so
// an adversary can push a stale payload over the line (see experiment E9).
func CntNoBind() Protocol { return protocol.NewCntNoBind() }

// Livelock returns a deliberately broken protocol used to demonstrate the
// pumping detector (Theorem 2.1's mechanism).
func Livelock() Protocol { return protocol.NewLivelock() }

// StabDL returns the self-stabilizing counting protocol: c+1 consecutive
// copies of the same payload are required before adoption, which lets it
// recover DL1–DL3 from every bounded corrupted start (see internal/stabilize
// and `nfvet verify -stabilize`).
func StabDL(c int) Protocol { return protocol.NewStabDL(c) }

// StabNaive returns the round-counting control specimen: clean-start
// correct but not self-stabilizing — corrupted starts drive it past its
// amnesty or into a certified livelock.
func StabNaive() Protocol { return protocol.NewStabNaive() }

// Arrival returns the arrival-order delivery specimen: it delivers in
// arrival order, so a corrupted start costs it DL2 (FIFO order), the
// property the amnesty judge charges late arrivals against.
func Arrival() Protocol { return protocol.NewArrival() }

// Protocols returns the built-in protocol registry keyed by name.
func Protocols() map[string]Protocol { return protocol.Registry() }

// Simulation (see internal/sim).
type (
	// Config describes one simulation.
	Config = sim.Config
	// Runner drives a protocol over two non-FIFO channels.
	Runner = sim.Runner
	// Result is a run outcome.
	Result = sim.Result
	// Metrics are the resource measurements of a run.
	Metrics = sim.Metrics
)

// NewRunner constructs a simulation runner.
func NewRunner(cfg Config) *Runner { return sim.NewRunner(cfg) }

// Trace checkers (the paper's correctness properties).
var (
	// CheckPL1 verifies physical-layer safety on one channel.
	CheckPL1 = ioa.CheckPL1
	// CheckDL1 verifies the send/receive message correspondence.
	CheckDL1 = ioa.CheckDL1
	// CheckDL2 verifies FIFO delivery order.
	CheckDL2 = ioa.CheckDL2
	// CheckDL3Quiescent verifies that every sent message was delivered.
	CheckDL3Quiescent = ioa.CheckDL3Quiescent
	// CheckValid verifies Definition 3 (valid execution).
	CheckValid = ioa.CheckValid
	// CheckSemiValid verifies Definition 4 (semi-valid execution).
	CheckSemiValid = ioa.CheckSemiValid
	// CheckSafety verifies the prefix-closed safety properties only.
	CheckSafety = ioa.CheckSafety
	// AsViolation extracts a *Violation from a checker error.
	AsViolation = ioa.AsViolation
)

// Adversaries (the paper's lower-bound constructions).
type (
	// Certificate is a machine-checkable violation witness.
	Certificate = adversary.Certificate
	// ReplayConfig bounds the replay search.
	ReplayConfig = adversary.ReplayConfig
	// ReplayReport is a replay-search outcome.
	ReplayReport = adversary.ReplayReport
	// PumpReport is a pumping-run outcome.
	PumpReport = adversary.PumpReport
	// HeaderBudgetReport is a Theorem 3.1 construction outcome.
	HeaderBudgetReport = adversary.HeaderBudgetReport
)

// ReplaySearch looks for a stale-copy replay schedule that drives the
// receiver into an invalid execution (rm = sm + 1).
func ReplaySearch(r *Runner, cfg ReplayConfig) (ReplayReport, error) {
	return adversary.ReplaySearch(r, cfg)
}

// Pump runs the optimal-from-now channel and reports either the closing
// cost or a repeated joint state (Theorem 2.1's pumping argument).
func Pump(r *Runner, budget int) (PumpReport, error) { return adversary.Pump(r, budget) }

// HeaderBudget accumulates in-transit copies of the protocol's whole
// alphabet and then replays (Theorem 3.1's construction).
func HeaderBudget(p Protocol, copies, messages int, cfg ReplayConfig) (HeaderBudgetReport, error) {
	return adversary.HeaderBudget(p, copies, messages, cfg)
}

// Execution traces: record, deterministic replay, shrinking (see
// internal/trace and internal/replay). Set Config.TraceLog to record a run;
// Replay re-drives a recorded log bit for bit and re-checks it; Shrink
// minimizes a violating log while preserving the violated property.
type (
	// TraceLog is a recorded execution event log.
	TraceLog = trace.Log
	// TraceEvent is one recorded event.
	TraceEvent = trace.Event
	// TraceStats is a summary of a trace log.
	TraceStats = trace.Stats
	// ReplayResult is the outcome of replaying a recorded log.
	ReplayResult = replay.Result
	// ShrinkResult is the outcome of minimizing a violating log.
	ShrinkResult = replay.ShrinkResult
)

// NewTraceLog returns an empty trace log ready for Config.TraceLog.
func NewTraceLog() *TraceLog { return trace.NewLog(nil) }

// Replay re-drives a recorded simulation log deterministically and
// re-checks the paper's properties on the replayed execution.
func Replay(l *TraceLog) (*ReplayResult, error) { return replay.Run(l) }

// Shrink delta-debugs a violating log to a minimal counterexample that
// still violates the same property when replayed. Safety violations use the
// prefix-search + greedy oracle; safety-clean logs that strand a message are
// minimized under the liveness oracles (reliable first, then adversarial).
func Shrink(l *TraceLog) (*ShrinkResult, error) { return replay.Shrink(l) }

// Liveness certification (see internal/replay/liveness.go): the executable
// analogue of Theorem 2.1's pumping argument. CertifyLivelock turns a
// safety-clean trace that strands a message *and keeps looping under the
// optimal physical layer* into a prefix+cycle certificate whose cycle pumps
// any number of times and still fails CheckDL3Quiescent.
type (
	// DriveMode selects the closing drive: reliable (protocol must recover)
	// or adversarial (the channel delivers nothing further).
	DriveMode = replay.DriveMode
	// DriveOutcome reports what the closing drive did to a replayed trace.
	DriveOutcome = replay.DriveOutcome
	// LivelockCert is a certified prefix+cycle livelock.
	LivelockCert = replay.LivelockCert
	// CertifyOptions tunes CertifyLivelock; the zero value is ready to use.
	CertifyOptions = replay.CertifyOptions
)

// Drive modes for CloseDrive and ShrinkLiveness.
const (
	DriveReliable    = replay.DriveReliable
	DriveAdversarial = replay.DriveAdversarial
)

// CloseDrive replays l and drives the quiescence-forcing closing extension
// (no new submissions) under the selected mode; budget <= 0 uses the
// default.
func CloseDrive(l *TraceLog, mode DriveMode, budget int) (*DriveOutcome, error) {
	return replay.CloseDrive(l, mode, budget)
}

// CertifyLivelock certifies a livelock by detecting a repeated joint
// configuration with no delivery progress under the reliable closing drive,
// and verifies the certificate by replaying its pumped cycle.
func CertifyLivelock(l *TraceLog, opts CertifyOptions) (*LivelockCert, error) {
	return replay.CertifyLivelock(l, opts)
}

// ShrinkLiveness minimizes a trace against the quiescent-DL3 oracle of the
// given drive mode (the trace must strand a message under that drive while
// staying safety-clean).
func ShrinkLiveness(l *TraceLog, mode DriveMode) (*ShrinkResult, error) {
	return replay.ShrinkLiveness(l, mode)
}

// TraceStatsOf summarizes a trace log.
func TraceStatsOf(l *TraceLog) TraceStats { return trace.Collect(l) }

// WriteTraceFile and ReadTraceFile store logs in the NFT trace format
// (see cmd/nftrace for the command-line pipeline).
var (
	WriteTraceFile = trace.WriteFile
	ReadTraceFile  = trace.ReadFile
)

// Coverage-guided fuzzing over protocol/channel state spaces (see
// internal/fuzz and cmd/nffuzz). Inputs are channel decision streams plus
// driver schedules; coverage is the set of joint endpoint configurations;
// violating inputs are promoted into shrunk, replayable NFT certificates.
type (
	// FuzzConfig describes one fuzzing campaign.
	FuzzConfig = fuzz.Config
	// FuzzResult summarizes a completed campaign.
	FuzzResult = fuzz.Result
	// FuzzViolation is one promoted, shrunk, replayable finding — a safety
	// certificate, or a pumped livelock certificate (Property "DL3").
	FuzzViolation = fuzz.Violation
)

// DistillCorpus reduces a corpus to a covering subset for proto by greedy
// set cover over the target protocol's coverage points — the cross-protocol
// corpus-transfer primitive.
func DistillCorpus(proto Protocol, inputs []*fuzz.Input) []*fuzz.Input {
	return fuzz.Distill(proto, inputs)
}

// Fuzz runs one coverage-guided fuzzing campaign.
func Fuzz(cfg FuzzConfig) (*FuzzResult, error) { return fuzz.Run(cfg) }

// Boundness measurement (the paper's Definitions 5 and 6).
type (
	// BoundnessSample is one measured point of a boundness curve.
	BoundnessSample = bound.Sample
)

// ClosingCost measures sp^{t→r}(β) of the definitional closing extension
// from the runner's current semi-valid state.
func ClosingCost(r *Runner, budget int) (int, error) { return bound.ClosingCost(r, budget) }

// MeasureMf measures the M_f-boundness curve over message counts.
func MeasureMf(p Protocol, n, budget int) ([]BoundnessSample, error) {
	return bound.MeasureMf(p, n, budget)
}

// MeasurePf measures the P_f-boundness curve over in-transit levels.
func MeasurePf(p Protocol, levels []int, budget int) ([]BoundnessSample, error) {
	return bound.MeasurePf(p, levels, budget)
}

// BuildInTransit prepares a runner with at least l packets delayed on the
// data channel and the transmitter idle.
func BuildInTransit(p Protocol, l, budget int) (*Runner, error) {
	return bound.BuildInTransit(p, l, budget)
}

// Experiments (DESIGN.md §4).
type (
	// ExperimentScale selects Quick or Full experiment sweeps.
	ExperimentScale = core.Scale
)

// Experiment scales.
const (
	Quick = core.Quick
	Full  = core.Full
)

// RunExperiments executes the full E0–E12 suite and renders its tables to w.
func RunExperiments(w io.Writer, scale ExperimentScale) error { return core.RunAll(w, scale) }

// SplitSeed derives the RNG seed for one named stream from a root seed, so
// every randomized component of a program can be pinned and replayed
// independently (see internal/core). All randomness in the module flows
// from seeds derived this way — the globalrand lint (cmd/nfvet) forbids the
// process-global math/rand source and hard-coded constant seeds.
func SplitSeed(root int64, stream string) int64 { return core.SplitSeed(root, stream) }

// Static boundness audit (see internal/analyze and cmd/nfvet).
type (
	// AuditConfig bounds the audit's state enumeration.
	AuditConfig = analyze.AuditConfig
	// AuditReport is the result of auditing one protocol: the observed
	// k_t, k_r and header alphabet, and the verdict against the
	// protocol's declared Bounds.
	AuditReport = analyze.AuditReport
	// Bounds declares a protocol's expected state-complexity envelope.
	Bounds = protocol.Bounds
)

// AuditProtocol exhaustively enumerates the protocol's joint control states
// (q_t, q_r) reachable under bounded channel occupancy and checks the
// observation against its declared Bounds: the k_t·k_r joint-state count
// Theorem 2.1's pumping adversary exploits, and the bounded header alphabet
// Theorems 3.1/4.1 presuppose. A zero-valued cfg uses the defaults
// (occupancy 2, 65536-state budget).
func AuditProtocol(p Protocol, cfg AuditConfig) *AuditReport { return analyze.Audit(p, cfg) }

// Occupancy sweep (see internal/analyze and `nfvet audit -sweep`).
type (
	// SweepConfig bounds one occupancy sweep.
	SweepConfig = analyze.SweepConfig
	// SweepReport is the k_t/k_r-vs-occupancy curve for one protocol.
	SweepReport = analyze.SweepReport
)

// AuditSweep audits the protocol at occupancy caps 1..cfg.MaxOccupancy and
// returns the k_t/k_r curve — the empirical face of Theorem 2.1: the
// pumping bound k_t·k_r a bounded protocol exposes can only grow with the
// channel's buffering, and plateaus once the cap covers the whole window.
// Use SweepReport.CheckMonotone to verify that shape and
// analyze.SweepTable (via `nfvet audit -sweep`) for the TSV rendering.
func AuditSweep(p Protocol, cfg SweepConfig) *SweepReport { return analyze.Sweep(p, cfg) }

// Bounded model checking (see internal/verify and `nfvet verify`).
type (
	// VerifyConfig bounds one verification run: per-channel occupancy cap,
	// submitted-message bound, and exploration budget.
	VerifyConfig = verify.Config
	// VerifyReport is the outcome: a PROVED proof artifact (state/edge
	// counts, canonical space hash), or a VIOLATED report carrying a
	// replay-confirmed NFT witness.
	VerifyReport = verify.Report
)

// Verify exhaustively explores the protocol's joint configurations
// reachable within cfg's bounds, checking DL1 on the fly and DL3 over the
// explored graph. It either PROVES the absence of violations within the
// bounds or emits a counterexample schedule that has been re-driven through
// the simulator and re-judged by the replay checkers. A zero-valued cfg
// uses the defaults (occupancy 2, 3 messages, 1<<18-state budget).
// Set VerifyConfig.Stabilize to seed the exploration with every bounded
// corrupted start: PROVED then means the protocol self-stabilizes within
// the bounds.
func Verify(p Protocol, cfg VerifyConfig) (*VerifyReport, error) { return verify.Run(p, cfg) }

// Self-stabilization (see internal/stabilize, `nfvet verify -stabilize`
// and `nffuzz -corrupt`). The paper's theorems assume clean starts; the
// stabilization subsystem drops that assumption:
// the adversary also picks the initial configuration, and a protocol
// self-stabilizes when every bounded corrupted start converges back to
// DL1–DL3 within its amnesty (finitely many bought faults).
type (
	// Corruption is one corrupted initial configuration: endpoint start
	// states by index into the protocol's declared corruption space plus
	// poison packets pre-loaded per channel.
	Corruption = stabilize.Corruption
	// CorruptionSpace declares a protocol's bounded corrupted starts.
	CorruptionSpace = protocol.CorruptionSpace
)

// EnumerateCorruptions lists the protocol's bounded corrupted starts: every
// declared endpoint-state pair crossed with every poison multiset of up to
// maxPoison packets per channel. Element 0 is the clean start.
func EnumerateCorruptions(p Protocol, maxPoison int) []Corruption {
	return stabilize.Enumerate(p, maxPoison)
}

// Amnesty returns the corruption's fault budget: the number of incorrect
// deliveries it is entitled to cause before the run counts as divergent.
func Amnesty(c Corruption, occupancy int) int { return stabilize.Amnesty(c, occupancy) }
