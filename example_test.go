package nonfifo_test

import (
	"fmt"
	"log"

	nonfifo "repro"
)

// Running a protocol over an adversarial channel and checking the
// execution against the paper's correctness properties.
func Example() {
	r := nonfifo.NewRunner(nonfifo.Config{
		Protocol:    nonfifo.SeqNum(),
		DataPolicy:  nonfifo.DelayFirst(2), // strand two stale copies
		RecordTrace: true,
	})
	res := r.Run(3)
	if res.Err != nil {
		log.Fatal(res.Err)
	}
	fmt.Println("delivered:", len(res.Delivered))
	fmt.Println("valid:", nonfifo.CheckValid(res.Trace) == nil)
	// Output:
	// delivered: 3
	// valid: true
}

// The replay adversary finds the classic non-FIFO attack on the
// alternating bit protocol and returns a machine-checked certificate.
func ExampleReplaySearch() {
	r := nonfifo.NewRunner(nonfifo.Config{
		Protocol:    nonfifo.AltBit(),
		DataPolicy:  nonfifo.DelayFirst(1),
		RecordTrace: true,
	})
	for i := 0; i < 2; i++ {
		if err := r.RunMessage(fmt.Sprintf("m%d", i)); err != nil {
			log.Fatal(err)
		}
	}
	rep, err := nonfifo.ReplaySearch(r, nonfifo.ReplayConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("broken:", rep.Cert != nil)
	fmt.Println("violation:", rep.Cert.Violation.Property)
	fmt.Println("recheck:", rep.Cert.Recheck() == nil)
	// Output:
	// broken: true
	// violation: DL1
	// recheck: true
}

// Exhaustive bounded model checking: every channel behaviour within the
// bounds, with a replay-confirmed witness or a PROVED verdict. The FIFO
// discipline isolates reordering as what breaks the alternating bit
// protocol.
func ExampleVerify() {
	broken, err := nonfifo.Verify(nonfifo.AltBit(), nonfifo.VerifyConfig{MaxMessages: 2})
	if err != nil {
		log.Fatal(err)
	}
	fifo, err := nonfifo.Verify(nonfifo.AltBit(), nonfifo.VerifyConfig{MaxMessages: 2, FIFO: true})
	if err != nil {
		log.Fatal(err)
	}
	safe, err := nonfifo.Verify(nonfifo.SeqNum(), nonfifo.VerifyConfig{MaxMessages: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("altbit:", broken.Verdict, broken.Property)
	fmt.Println("altbit over FIFO:", fifo.Verdict)
	fmt.Println("seqnum:", safe.Verdict)
	// Output:
	// altbit: VIOLATED DL1
	// altbit over FIFO: PROVED
	// seqnum: PROVED
}

// Measuring the P_f-boundness curve (Definition 6): the packets needed to
// deliver the next message as a function of packets stranded in transit.
// The counting protocol pays linearly (Theorem 4.1, tight); compare the
// naive protocol's O(1).
func ExampleMeasurePf() {
	samples, err := nonfifo.MeasurePf(nonfifo.CntLinear(), []int{0, 8, 64}, 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range samples {
		fmt.Printf("in-transit %d → cost %d\n", s.InTransit, s.Cost)
	}
	// Output:
	// in-transit 0 → cost 1
	// in-transit 8 → cost 9
	// in-transit 64 → cost 65
}

// The Theorem 2.1 pumping argument: a protocol that cannot close its
// execution has a repeating joint state, certifying a livelock.
func ExamplePump() {
	r := nonfifo.NewRunner(nonfifo.Config{Protocol: nonfifo.Livelock()})
	r.SubmitMsg("m")
	rep, err := nonfifo.Pump(r, 1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pumped:", rep.Pumped)
	// Output:
	// pumped: true
}

// Formal verification in the [LT87] I/O automaton formalism: the naive
// protocol is safe over the non-FIFO channel, proven by exhausting the
// reachable states of the composed system.
func ExampleReachAutomaton() {
	sys, err := nonfifo.NewSeqNumSystem(nonfifo.NonFIFOChannel, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	res, err := nonfifo.ReachAutomaton(sys, nonfifo.AutomatonViolated, 1<<22)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("violation found:", res.Found != nil)
	fmt.Println("space exhausted:", res.Exhausted)
	// Output:
	// violation found: false
	// space exhausted: true
}
