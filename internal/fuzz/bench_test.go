package fuzz

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/protocol"
)

// BenchmarkFuzzThroughput measures end-to-end campaign throughput
// (executions per second, mutation + execution + coverage merge) at several
// worker counts. The sound cntlinear protocol is used so no campaign ends
// early on a violation; b.N is the execution budget, so ns/op is ns per
// fuzzed input and the scaling across worker counts is read directly off
// the op times. Results are recorded in EXPERIMENTS.md.
func BenchmarkFuzzThroughput(b *testing.B) {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			res, err := Run(Config{
				Protocol: protocol.NewCntLinear(),
				Workers:  w,
				Budget:   int64(b.N),
				Seed:     1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Execs < int64(b.N) && b.N > len(SeedInputs()) {
				b.Fatalf("campaign executed %d of %d budget", res.Execs, b.N)
			}
			b.ReportMetric(float64(res.Execs)/b.Elapsed().Seconds(), "execs/sec")
		})
	}
}

// benchCorpus grows a fixed deterministic schedule corpus: the canonical
// seeds plus mutation chains, the same construction nfbench uses for its
// pure-execution rows.
func benchCorpus(n int) []*Input {
	rng := rand.New(rand.NewSource(1))
	ins := SeedInputs()
	for len(ins) < n {
		ins = append(ins, Mutate(ins[rng.Intn(len(ins))], rng))
	}
	return ins
}

// BenchmarkExecute is the regression guard for the interned core: one
// pooled Core.Execute per op over a fixed 64-input corpus.
func BenchmarkExecute(b *testing.B) {
	corpus := benchCorpus(64)
	c := NewCore(protocol.NewAltBit())
	for i := 0; i < b.N; i++ {
		if r := c.Execute(corpus[i%len(corpus)], false); r == nil {
			b.Fatal("nil result")
		}
	}
}
