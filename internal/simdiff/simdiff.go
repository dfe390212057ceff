// Package simdiff is the differential equivalence harness that locks the
// bounded prover's interned visited set to its reference semantics.
//
// The prover's default store dedups on packed interned keys (component ids
// plus counters) instead of hashing the canonical key string. That fast
// path carries an equivalence obligation: it may not change a single
// observable of the proof artifact. The spill store (verify.Config.SpillDir)
// dedups on the canonical key bytes — the reference semantics — so this
// package runs every specimen through both stores, clean, stabilize and
// FIFO modes alike, and demands identical states, edges, canonical space
// hashes and verdicts. (The fuzzer's interned core is held to its string
// reference executor the same way, by the tests of internal/fuzz.)
package simdiff

import (
	"fmt"
	"os"

	"repro/internal/protocol"
	"repro/internal/verify"
)

// CompareVerify runs the bounded checker twice — once over the spill store,
// which dedups on the canonical key bytes, and once over the packed interned
// store — and returns the first divergence in the proof artifact, or nil.
// The spill file lives under cfg.SpillDir (the OS temp directory when
// empty) and is removed when the run ends.
func CompareVerify(proto protocol.Protocol, cfg verify.Config) error {
	if cfg.SpillDir == "" {
		cfg.SpillDir = os.TempDir()
	}
	want, err := verify.Run(proto, cfg)
	if err != nil {
		return fmt.Errorf("spill run: %w", err)
	}
	cfg.SpillDir = ""
	got, err := verify.Run(proto, cfg)
	if err != nil {
		return fmt.Errorf("interned run: %w", err)
	}
	return DiffReports(want, got)
}

// DiffReports compares the store-independent content of two verification
// reports and returns the first divergence, or nil.
func DiffReports(want, got *verify.Report) error {
	if want.States != got.States || want.Edges != got.Edges {
		return fmt.Errorf("graph: %d states/%d edges vs %d states/%d edges",
			want.States, want.Edges, got.States, got.Edges)
	}
	if want.SpaceHash != got.SpaceHash {
		return fmt.Errorf("space hash: %s vs %s", want.SpaceHash, got.SpaceHash)
	}
	if want.Exhausted != got.Exhausted {
		return fmt.Errorf("exhausted: %v vs %v", want.Exhausted, got.Exhausted)
	}
	if want.Verdict != got.Verdict || want.Property != got.Property {
		return fmt.Errorf("verdict: %s/%s vs %s/%s", want.Verdict, want.Property, got.Verdict, got.Property)
	}
	if want.Detail != got.Detail {
		return fmt.Errorf("detail: %q vs %q", want.Detail, got.Detail)
	}
	if want.Check != got.Check {
		return fmt.Errorf("check: %s vs %s", want.Check, got.Check)
	}
	if want.Seeds != got.Seeds || want.Seed != got.Seed {
		return fmt.Errorf("stabilize seeds: %d/%q vs %d/%q", want.Seeds, want.Seed, got.Seeds, got.Seed)
	}
	return nil
}
