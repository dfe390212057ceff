package verify

import (
	"strconv"
	"testing"

	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/stabilize"
)

// TestStabilizeProvesStabDL is the acceptance check for the stabilize-mode
// proof path: the counting protocol with its consecutive-copy threshold
// (stabdl2, declared self-stabilizing) must be PROVED convergent by pure
// exhaustion from every bounded corrupted start — which is exactly the
// modern "self-stabilizing data link" claim restricted to the paper's
// bounded model.
func TestStabilizeProvesStabDL(t *testing.T) {
	rep, err := Run(protocol.NewStabDL(2), Config{Stabilize: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictProved {
		t.Fatalf("verdict = %s, want PROVED (failures: %v)", rep.Verdict, rep.Failures)
	}
	if rep.Check != CheckCertified {
		t.Fatalf("check = %s, want CERTIFIED (declared self-stabilizing and proved)", rep.Check)
	}
	if !rep.Stabilize || rep.Seeds != 81 {
		t.Fatalf("stabilize=%v seeds=%d, want stabilize mode over the full 81-seed space", rep.Stabilize, rep.Seeds)
	}
	if rep.DeclaredStabilizing == nil || !*rep.DeclaredStabilizing {
		t.Fatalf("declaration not picked up: %v", rep.DeclaredStabilizing)
	}
}

// TestStabilizeStabNaiveWitness is the acceptance check for the stabilize
// counterexample path: the round-counting control specimen (declared not
// self-stabilizing) must yield a replay-confirmed divergence witness whose
// corrupted start is identified, whose metadata carries the amnesty, and
// whose replayed trace re-judges — from scratch, by the amnesty judge — to
// the reported property. This also exercises the multi-root witness chain:
// the BFS path must stop at the corrupted root, not fabricate moves past it.
func TestStabilizeStabNaiveWitness(t *testing.T) {
	rep, err := Run(protocol.NewStabNaive(), Config{Stabilize: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != VerdictViolated {
		t.Fatalf("verdict = %s, want VIOLATED", rep.Verdict)
	}
	if rep.Check != CheckCertified {
		t.Fatalf("check = %s, want CERTIFIED (declared non-stabilizing, divergence confirmed)", rep.Check)
	}
	if !rep.WitnessConfirmed || rep.Witness == nil || rep.Seed == "" {
		t.Fatalf("witness not confirmed or seed missing: confirmed=%v seed=%q", rep.WitnessConfirmed, rep.Seed)
	}
	if got := rep.Witness.Meta[stabilize.MetaCorruption]; got != rep.Seed {
		t.Fatalf("witness metadata corruption %q, report seed %q", got, rep.Seed)
	}

	rr, err := replay.Run(rep.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Divergence != nil {
		t.Fatalf("witness diverged on replay: %v", rr.Divergence)
	}
	if !rr.VerdictMatches {
		t.Fatalf("witness verdict mismatch: recorded %v, re-checked %v/%v",
			rr.RecordedVerdict, rr.Verdict, rr.DL3)
	}
	amnesty, err := strconv.Atoi(rep.Witness.Meta[stabilize.MetaAmnesty])
	if err != nil {
		t.Fatalf("witness metadata amnesty: %v", err)
	}
	j := stabilize.JudgeTrace(rr.Trace, amnesty)
	if j.Violation == nil || j.Violation.Property != rep.Property {
		t.Fatalf("witness re-judges to %v, want %s over amnesty %d", j.Violation, rep.Property, amnesty)
	}
}

// TestStabilizeSoundVsUnsound pins the remaining verdict quadrants: altbit
// (a poison packet impersonates a data packet) and arrival (a forged early
// copy of a later message is delivered in arrival order), both declared
// non-stabilizing, are CERTIFIED divergent from a corrupted start with a
// replay-confirmed witness, and a declared self-stabilizing protocol is
// never certified on a BUDGET verdict (CONSISTENT at best).
func TestStabilizeSoundVsUnsound(t *testing.T) {
	for _, p := range []protocol.Protocol{protocol.NewAltBit(), protocol.NewArrival()} {
		rep, err := Run(p, Config{Stabilize: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != VerdictViolated || rep.Check != CheckCertified {
			t.Fatalf("%s: verdict=%s check=%s, want VIOLATED/CERTIFIED", p.Name(), rep.Verdict, rep.Check)
		}
		if !rep.WitnessConfirmed || rep.Seed == "" {
			t.Fatalf("%s: witness confirmed=%v seed=%q, want a confirmed corrupted-start witness",
				p.Name(), rep.WitnessConfirmed, rep.Seed)
		}
	}

	budget, err := Run(protocol.NewStabDL(2), Config{Stabilize: true, MaxStates: 100})
	if err != nil {
		t.Fatal(err)
	}
	if budget.Verdict != VerdictBudget || budget.Check != CheckConsistent {
		t.Fatalf("budget run: verdict=%s check=%s, want BUDGET/CONSISTENT", budget.Verdict, budget.Check)
	}
}

// TestStabilizeCleanSpaceUnchanged guards the key-schema split: stabilize
// mode widens configuration keys with the amnesty/frontier strands, but a
// clean-mode run must produce the exact same space (state count and
// canonical hash) as before the stabilize integration — clean proofs predate
// the feature and their hashes are compared across versions.
func TestStabilizeCleanSpaceUnchanged(t *testing.T) {
	a, err := Run(protocol.NewStabDL(2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(protocol.NewStabDL(2), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.SpaceHash != b.SpaceHash || a.States != b.States {
		t.Fatalf("clean runs disagree: %s/%d vs %s/%d", a.SpaceHash, a.States, b.SpaceHash, b.States)
	}
	s, err := Run(protocol.NewStabDL(2), Config{Stabilize: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.States <= a.States {
		t.Fatalf("stabilize space (%d states) not larger than clean space (%d)", s.States, a.States)
	}
}

// TestStabilizeRejectsOverwideBounds: the lost-position bitmask saturates at
// stabilize.MaxLost, so message bounds beyond it must be refused loudly
// rather than silently judged with coarser charges.
func TestStabilizeRejectsOverwideBounds(t *testing.T) {
	_, err := Run(protocol.NewStabDL(2), Config{Stabilize: true, MaxMessages: stabilize.MaxLost + 1})
	if err == nil {
		t.Fatalf("MaxMessages beyond stabilize.MaxLost accepted")
	}
}
