// The paper's closing remark — "all our results can be extended to
// transport layer protocols over non-FIFO virtual links" — in action.
//
// A sliding window transport protocol with sequence numbers mod S has a
// bounded header alphabet, so Theorem 3.1's dichotomy applies one layer up:
// a segment delayed for a full wrap of the sequence space aliases into the
// receive window and is accepted as a new message. The bounded prover finds
// the shortest such execution automatically and confirms it by replay; the
// unbounded-sequence variant is PROVED against the same exhaustive
// adversary.
package main

import (
	"fmt"
	"log"

	nonfifo "repro"
)

func main() {
	// Part 1: sequence numbers mod 2, window 1 — TCP with a 1-bit
	// sequence field, over a network that can reorder.
	bounded := nonfifo.SlidingWindow(2, 1)
	rep, err := nonfifo.Verify(bounded, nonfifo.VerifyConfig{MaxMessages: 3})
	if err != nil {
		log.Fatal(err)
	}
	if rep.Verdict != "VIOLATED" || !rep.WitnessConfirmed {
		log.Fatal("unexpected: the bounded sequence space should be breakable")
	}
	rr, err := nonfifo.Replay(rep.Witness)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s over a non-FIFO virtual link:\n", bounded.Name())
	fmt.Printf("  %s: %s\n", rep.Property, rep.Detail)
	fmt.Printf("  shortest witness (%d ops, %d states explored), replayed:\n\n%s\n",
		rep.WitnessOps, rep.States, rr.Trace)

	// Part 2: the same window with unbounded sequence numbers survives the
	// identical exhaustive adversary.
	unbounded := nonfifo.SlidingWindow(0, 2)
	safe, err := nonfifo.Verify(unbounded, nonfifo.VerifyConfig{MaxMessages: 3})
	if err != nil {
		log.Fatal(err)
	}
	if safe.Verdict != "PROVED" {
		log.Fatal("unexpected: unbounded sequence numbers should be safe")
	}
	fmt.Printf("%s: PROVED — %d states exhausted, no violating interleaving exists\n",
		unbounded.Name(), safe.States)
	fmt.Println()
	fmt.Println("Theorem 3.1, one layer up: a transport protocol either spends unbounded")
	fmt.Println("sequence-number headers, or a wrap-around replay breaks it.")
}
