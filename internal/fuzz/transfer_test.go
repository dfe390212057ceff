package fuzz

import (
	"path/filepath"
	"testing"

	"repro/internal/protocol"
)

// Cross-protocol corpus transfer: schedules discovered while fuzzing one
// protocol encode channel-behaviour structure (strand a copy, accumulate
// in-transit duplicates, re-deliver late) that carries over to other
// protocols even though the endpoint state spaces differ. The test distills
// an altbit corpus against cheat1 and seeds a cheat1 campaign with the
// survivors; discovery must get cheaper than from benign seeds alone.
//
// Everything is seed-pinned: altbit source campaign at seed 1, cheat1 target
// campaigns at seed 7 (chosen as a slow benign-discovery seed so the
// comparison has headroom — benign discovery takes ~75 execs there).

func TestDistillGreedySetCover(t *testing.T) {
	srcDir := filepath.Join(t.TempDir(), "altbit-corpus")
	if _, err := Run(Config{
		Protocol: protocol.NewAltBit(), Workers: 1, Budget: 1000, Seed: 1,
		CorpusDir: srcDir,
	}); err != nil {
		t.Fatalf("source campaign: %v", err)
	}
	inputs, err := LoadCorpus(srcDir)
	if err != nil {
		t.Fatalf("LoadCorpus: %v", err)
	}
	if len(inputs) == 0 {
		t.Fatal("source campaign admitted nothing")
	}
	distilled := Distill(protocol.NewCheat(1), inputs)
	if len(distilled) == 0 {
		t.Fatal("distillation kept nothing")
	}
	if len(distilled) > len(inputs) {
		t.Fatalf("distillation grew the corpus: %d -> %d", len(inputs), len(distilled))
	}
	// Coverage parity: the distilled subset must reproduce the full set's
	// coverage on the target protocol — that is the set-cover invariant.
	coverOf := func(ins []*Input) coverSet {
		cs := make(coverSet)
		for _, in := range ins {
			cs.addAll(NewCore(protocol.NewCheat(1)).Execute(in, false).Points)
		}
		return cs
	}
	full, kept := coverOf(inputs), coverOf(distilled)
	if len(kept) != len(full) {
		t.Fatalf("distilled subset covers %d of %d target points", len(kept), len(full))
	}
	// And it must actually distill: identical coverage with fewer inputs.
	if len(distilled) == len(inputs) {
		t.Fatalf("distillation removed nothing (%d inputs)", len(inputs))
	}
	t.Logf("distilled %d -> %d inputs, %d target coverage points",
		len(inputs), len(distilled), len(full))
}

func TestCorpusTransferSpeedsUpDiscovery(t *testing.T) {
	// Baseline: cheat1 from benign seeds only.
	baseline, err := Run(Config{
		Protocol: protocol.NewCheat(1), Workers: 1, Budget: 20000, Seed: 7,
		StopOnViolation: true,
	})
	if err != nil {
		t.Fatalf("baseline campaign: %v", err)
	}
	baseAt := findViolation(t, baseline, "DL1").FoundAtExec

	// Source: an altbit campaign's corpus, distilled against cheat1.
	srcDir := filepath.Join(t.TempDir(), "altbit-corpus")
	if _, err := Run(Config{
		Protocol: protocol.NewAltBit(), Workers: 1, Budget: 1000, Seed: 1,
		CorpusDir: srcDir,
	}); err != nil {
		t.Fatalf("source campaign: %v", err)
	}
	inputs, err := LoadCorpus(srcDir)
	if err != nil {
		t.Fatalf("LoadCorpus: %v", err)
	}
	seedDir := filepath.Join(t.TempDir(), "cheat1-seed")
	if err := SaveCorpus(seedDir, Distill(protocol.NewCheat(1), inputs)); err != nil {
		t.Fatalf("SaveCorpus: %v", err)
	}

	// Target: same campaign, seeded with the transferred corpus.
	seeded, err := Run(Config{
		Protocol: protocol.NewCheat(1), Workers: 1, Budget: 20000, Seed: 7,
		CorpusDir: seedDir, StopOnViolation: true,
	})
	if err != nil {
		t.Fatalf("seeded campaign: %v", err)
	}
	seededAt := findViolation(t, seeded, "DL1").FoundAtExec

	if seededAt >= baseAt {
		t.Fatalf("corpus transfer did not speed up discovery: seeded %d execs, benign %d",
			seededAt, baseAt)
	}
	t.Logf("cheat1 DL1: benign seeds %d execs, transferred corpus %d execs", baseAt, seededAt)
}

func findViolation(t *testing.T, res *Result, prop string) *Violation {
	t.Helper()
	for _, v := range res.Violations {
		if v.Property == prop {
			return v
		}
	}
	t.Fatalf("no %s violation found in %d execs", prop, res.Execs)
	return nil
}
