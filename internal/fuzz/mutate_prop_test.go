package fuzz

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/protocol"
)

// Property-based feasibility tests for the mutation operators: whatever an
// operator does to a valid genotype, the result must (1) survive the strict
// NFZI codec round trip, (2) respect the genotype caps after capInput, and
// (3) execute feasibly and deterministically — stale picks that reference
// nothing are no-ops by construction, so execution is total. Seeds are
// pinned; a failure message names the operator and the iteration.

// randomValidInput derives a random valid genotype by walking the mutation
// space from a seed input. Mutate's output is the definition of "valid
// genotype" in this fuzzer, so the walk is the right generator: operators
// must tolerate anything their own composition can produce.
func randomValidInput(rng *rand.Rand) *Input {
	in := SeedInputs()[rng.Intn(len(SeedInputs()))].Clone()
	for n := rng.Intn(8); n > 0; n-- {
		in = Mutate(in, rng)
	}
	return in
}

// checkCandidate asserts the three feasibility properties on one candidate.
func checkCandidate(t *testing.T, label string, iter int, c *Input) {
	t.Helper()
	if len(c.Ops) > MaxOps || len(c.Data) > MaxDecisions || len(c.Ack) > MaxDecisions {
		t.Fatalf("%s iter %d: caps exceeded: %d ops, %d data, %d ack",
			label, iter, len(c.Ops), len(c.Data), len(c.Ack))
	}
	enc := c.Encode()
	out, err := Decode(enc)
	if err != nil {
		t.Fatalf("%s iter %d: mutant fails strict NFZI validation: %v", label, iter, err)
	}
	if !bytes.Equal(out.Encode(), enc) {
		t.Fatalf("%s iter %d: NFZI round trip not stable", label, iter)
	}
	a := NewCore(protocol.NewAltBit()).Execute(c, false)
	b := NewCore(protocol.NewAltBit()).Execute(c, false)
	if len(a.Points) != len(b.Points) {
		t.Fatalf("%s iter %d: nondeterministic execution: %d vs %d points",
			label, iter, len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("%s iter %d: nondeterministic coverage at %d", label, iter, i)
		}
	}
}

func TestMutatorTableIsComplete(t *testing.T) {
	if len(mutators) != 8 {
		t.Fatalf("mutator table has %d operators, want 8", len(mutators))
	}
	seen := make(map[string]bool)
	for _, m := range mutators {
		if m.name == "" || m.apply == nil {
			t.Fatalf("incomplete mutator entry %+v", m)
		}
		if seen[m.name] {
			t.Fatalf("duplicate mutator name %q", m.name)
		}
		seen[m.name] = true
	}
}

// TestEachOperatorPreservesFeasibility applies every operator in isolation
// to random valid inputs, wrapped the way Mutate wraps it (empty-schedule
// restore plus capInput), and checks the feasibility properties.
func TestEachOperatorPreservesFeasibility(t *testing.T) {
	for idx, m := range mutators {
		m := m
		rng := rand.New(rand.NewSource(int64(1000 + idx))) // pinned per operator
		t.Run(m.name, func(t *testing.T) {
			for i := 0; i < 250; i++ {
				c := randomValidInput(rng).Clone()
				m.apply(c, rng)
				if len(c.Ops) == 0 {
					c.Ops = append(c.Ops, Op{Kind: OpSubmit}, Op{Kind: OpTransmit})
				}
				checkCandidate(t, m.name, i, capInput(c))
			}
		})
	}
}

// TestMutatePreservesFeasibility exercises the composed path (1–3 stacked
// operators per call), which is what campaigns actually run.
func TestMutatePreservesFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		c := Mutate(randomValidInput(rng), rng)
		if len(c.Ops) == 0 {
			t.Fatalf("iter %d: Mutate produced an empty schedule", i)
		}
		checkCandidate(t, "mutate", i, c)
	}
}

// TestCrossoverPreservesFeasibility recombines random pairs at random cut
// points; offspring must satisfy the same feasibility properties as mutants.
func TestCrossoverPreservesFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 500; i++ {
		a, b := randomValidInput(rng), randomValidInput(rng)
		c := Crossover(a, b, rng)
		if len(c.Ops) == 0 {
			t.Fatalf("iter %d: Crossover produced an empty schedule", i)
		}
		checkCandidate(t, "crossover", i, c)
	}
}

// TestMutationDeterminism pins the RNG-consumption contract of the operator
// table: the same parent and the same seeded RNG must yield byte-identical
// mutants. Campaign reproducibility (same seed, same trajectory) rests on
// this — an operator that changed its RNG call order would silently fork
// every recorded campaign.
func TestMutationDeterminism(t *testing.T) {
	parent := randomValidInput(rand.New(rand.NewSource(7)))
	a, b := rand.New(rand.NewSource(99)), rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		ma, mb := Mutate(parent, a), Mutate(parent, b)
		if !bytes.Equal(ma.Encode(), mb.Encode()) {
			t.Fatalf("iter %d: same seed produced different mutants", i)
		}
		parent = ma
	}
}
