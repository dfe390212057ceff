package simdiff

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/verify"
)

// TestVerifyEquivalence runs the bounded checker over every registry
// protocol with both visited-set stores and demands identical proof
// artifacts — states, edges, space hash, verdict, check — including the
// stabilize mode for the protocols that declare a corruption space and the
// FIFO discipline for the protocols whose verdict it flips or keeps.
func TestVerifyEquivalence(t *testing.T) {
	for _, name := range protocol.Names() {
		p := protocol.Registry()[name]
		t.Run(name, func(t *testing.T) {
			if err := CompareVerify(p, verify.Config{MaxStates: 4000}); err != nil {
				t.Fatalf("clean mode: %v", err)
			}
		})
	}
	for _, name := range []string{"stabdl2", "stabnaive"} {
		p := protocol.Registry()[name]
		if p == nil {
			t.Fatalf("registry lost %s", name)
		}
		t.Run(name+"-stabilize", func(t *testing.T) {
			if err := CompareVerify(p, verify.Config{MaxStates: 4000, Stabilize: true}); err != nil {
				t.Fatalf("stabilize mode: %v", err)
			}
		})
	}
	for _, name := range []string{"altbit", "cheat1", "seqnum", "cntlinear"} {
		p := protocol.Registry()[name]
		t.Run(name+"-fifo", func(t *testing.T) {
			if err := CompareVerify(p, verify.Config{FIFO: true, SpillDir: t.TempDir()}); err != nil {
				t.Fatalf("FIFO mode: %v", err)
			}
		})
	}
}

// TestVerifySpillEquivalence holds the spill store to the in-memory interned
// store on an exhaustive seqnum run: identical space hash, graph size and
// verdict whether the visited keys live in RAM as packed ids or on disk as
// canonical strings.
func TestVerifySpillEquivalence(t *testing.T) {
	p := protocol.Registry()["seqnum"]
	mem, err := verify.Run(p, verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	spill, err := verify.Run(p, verify.Config{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !spill.Spilled {
		t.Fatal("spill run did not report Spilled")
	}
	if err := DiffReports(mem, spill); err != nil {
		t.Fatalf("spill vs interned in-memory: %v", err)
	}
}
