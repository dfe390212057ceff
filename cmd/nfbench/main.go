// Command nfbench measures the throughput of the repo's two exploration
// engines and writes the measurements as a JSON artifact:
//
//   - verify: bounded configuration-space exploration (internal/verify),
//     reported as explored configurations per second. One exhaustive proof
//     (seqnum at the default bounds) and one budget-bounded run (cntexp,
//     whose counters make the space effectively unbounded) bracket the
//     small-graph and big-graph regimes.
//   - fuzz: coverage-guided schedule fuzzing (internal/fuzz), reported as
//     input executions per second on the altbit specimen.
//   - analyze: the facts-enabled lint suite over the module's own source
//     (the CI vet workload), reported as packages analyzed per second.
//   - netlink: the soak server (internal/netlink) running concurrent
//     lock-step sessions over real loopback UDP with chaos injection,
//     reported as delivered messages per second — the one row whose work
//     crosses the kernel instead of staying in the model.
//
// The fuzzexec/altbit-interned row times pure input execution through the
// interned core on a fixed corpus; its gap to fuzz/altbit is the campaign
// machinery's overhead.
//
// The engines themselves are clock-free (the wallclock lint bans ambient
// time reads in internal/verify and internal/fuzz); all timing lives here
// in the command, wrapped around deterministic runs. The workloads are
// fixed-size and seeded, so the work per run is identical across machines —
// only the elapsed time varies. Checked-in BENCH_*.json files record a
// reference machine; regenerate with:
//
//	go run ./cmd/nfbench -label <machine> -o BENCH_<machine>.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/analyze"
	"repro/internal/fuzz"
	"repro/internal/netlink"
	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Benchmark is one measured workload.
type Benchmark struct {
	// Name identifies the engine and workload, e.g. "verify/cntexp".
	Name string `json:"name"`
	// Metric names what Rate counts per second.
	Metric string `json:"metric"`
	// Work is the total metric count the workload performed.
	Work int64 `json:"work"`
	// ElapsedMS is the wall-clock time in milliseconds.
	ElapsedMS float64 `json:"elapsedMs"`
	// Rate is Work divided by the elapsed seconds.
	Rate float64 `json:"rate"`
	// Detail summarizes the workload outcome (verdict, violations).
	Detail string `json:"detail"`
}

// Artifact is the written JSON document.
type Artifact struct {
	Label      string      `json:"label"`
	GoVersion  string      `json:"goVersion"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("nfbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		label        = fs.String("label", "dev", "machine/configuration label recorded in the artifact")
		outPath      = fs.String("o", "", "write the JSON artifact to this path (default: stdout only)")
		verifyBudgt  = fs.Int("verifybudget", 1<<15, "state budget for the budget-bounded verify workload")
		fuzzBudget   = fs.Int64("fuzzbudget", 20000, "execution budget for the fuzz workload")
		soakSessions = fs.Int("soaksessions", 256, "session count for the soak workload")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	art := &Artifact{
		Label:     *label,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}

	steps := []func() (Benchmark, error){
		func() (Benchmark, error) { return benchVerify("seqnum", "verify/seqnum", verify.Config{}) },
		func() (Benchmark, error) {
			return benchVerify("cntexp", "verify/cntexp", verify.Config{MaxStates: *verifyBudgt})
		},
		// The stabilize workload is the 81-root corrupted-start proof of
		// stabdl2 — the multi-root regime, dominated by the widened
		// amnesty-carrying configuration keys.
		func() (Benchmark, error) {
			return benchVerify("stabdl2", "verify/stabdl2-stabilize", verify.Config{Stabilize: true})
		},
		func() (Benchmark, error) { return benchFuzz("altbit", *fuzzBudget) },
		// Pure execution, no campaign machinery: a fixed corpus replayed
		// through the interned core.
		func() (Benchmark, error) { return benchExec("altbit", *fuzzBudget) },
		// The facts-enabled lint suite over the whole module — the same work
		// the CI vet step performs, measured as packages analyzed per second
		// (load + type-check + seven analyzers + in-memory facts channel).
		benchLint,
		// The soak server: concurrent lock-step sessions over real loopback
		// UDP with chaos injection, reported as delivered messages per
		// second. Unlike the engine rows this one crosses the kernel on
		// every send, so it measures the wire round trip, not the model.
		func() (Benchmark, error) { return benchSoak(*soakSessions) },
	}
	for _, step := range steps {
		b, err := step()
		if err != nil {
			fmt.Fprintln(errw, "nfbench:", err)
			return 1
		}
		fmt.Fprintf(out, "%-16s %12d %s in %8.1fms  (%10.0f/sec)  %s\n",
			b.Name, b.Work, b.Metric, b.ElapsedMS, b.Rate, b.Detail)
		art.Benchmarks = append(art.Benchmarks, b)
	}

	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintln(errw, "nfbench:", err)
		return 1
	}
	data = append(data, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			fmt.Fprintln(errw, "nfbench:", err)
			return 1
		}
		fmt.Fprintf(out, "wrote %s\n", *outPath)
	} else {
		out.Write(data)
	}
	return 0
}

// benchVerify times one bounded-exploration run and reports explored
// configurations per second. display distinguishes workloads that share a
// protocol but differ in Config (e.g. the stabilize-mode run).
func benchVerify(name, display string, cfg verify.Config) (Benchmark, error) {
	p, err := replay.LookupProtocol(name)
	if err != nil {
		return Benchmark{}, err
	}
	start := time.Now()
	rep, err := verify.Run(p, cfg)
	elapsed := time.Since(start)
	if err != nil {
		return Benchmark{}, fmt.Errorf("verify %s: %w", name, err)
	}
	return Benchmark{
		Name:      display,
		Metric:    "configs",
		Work:      int64(rep.States),
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		Rate:      rate(int64(rep.States), elapsed),
		Detail:    fmt.Sprintf("verdict=%s edges=%d", rep.Verdict, rep.Edges),
	}, nil
}

// benchFuzz times one seeded single-worker fuzz campaign and reports input
// executions per second.
func benchFuzz(name string, budget int64) (Benchmark, error) {
	p, err := replay.LookupProtocol(name)
	if err != nil {
		return Benchmark{}, err
	}
	start := time.Now()
	res, err := fuzz.Run(fuzz.Config{Protocol: p, Budget: budget, Seed: 1, Workers: 1})
	elapsed := time.Since(start)
	if err != nil {
		return Benchmark{}, fmt.Errorf("fuzz %s: %w", name, err)
	}
	return Benchmark{
		Name:      "fuzz/" + name,
		Metric:    "execs",
		Work:      res.Execs,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		Rate:      rate(res.Execs, elapsed),
		Detail:    fmt.Sprintf("corpus=%d violations=%d", res.CorpusSize, len(res.Violations)),
	}, nil
}

// benchExec times pure input execution — no mutation, scheduling or
// coverage merging — over a fixed deterministic corpus: the canonical seeds
// grown to 64 schedules by seeded mutation, the same construction
// internal/fuzz's BenchmarkExecute uses. Each corpus input is executed
// round-robin through one pooled interned core until budget executions have
// run.
func benchExec(name string, budget int64) (Benchmark, error) {
	p, err := replay.LookupProtocol(name)
	if err != nil {
		return Benchmark{}, err
	}
	//nfvet:allow globalrand (the corpus must be identical on every machine: the artifact compares rates on fixed work)
	rng := rand.New(rand.NewSource(1))
	corpus := fuzz.SeedInputs()
	for len(corpus) < 64 {
		corpus = append(corpus, fuzz.Mutate(corpus[rng.Intn(len(corpus))], rng))
	}
	core := fuzz.NewCore(p)
	start := time.Now()
	for i := int64(0); i < budget; i++ {
		core.Execute(corpus[i%int64(len(corpus))], false)
	}
	elapsed := time.Since(start)
	return Benchmark{
		Name:      "fuzzexec/" + name + "-interned",
		Metric:    "execs",
		Work:      budget,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		Rate:      rate(budget, elapsed),
		Detail:    fmt.Sprintf("corpus=%d", len(corpus)),
	}, nil
}

// benchLint times the in-process analysis pipeline end to end: resolve and
// type-check every module package, then run the full analyzer suite in
// dependency order with the facts channel on. The workload is the module's
// own source, so Work (packages) is fixed for a given tree.
func benchLint() (Benchmark, error) {
	wd, err := os.Getwd()
	if err != nil {
		return Benchmark{}, err
	}
	start := time.Now()
	pkgs, err := analyze.LoadPackages(wd, "./...")
	if err != nil {
		return Benchmark{}, fmt.Errorf("lint: %w", err)
	}
	res := analyze.AnalyzeModule(analyze.Analyzers(), pkgs, true)
	elapsed := time.Since(start)
	return Benchmark{
		Name:      "analyze/lint",
		Metric:    "packages",
		Work:      int64(len(pkgs)),
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		Rate:      rate(int64(len(pkgs)), elapsed),
		Detail:    fmt.Sprintf("findings=%d allowed=%d", len(res.Diags), len(res.Suppressed)),
	}, nil
}

// benchSoak times a soak run through the real-socket server: sessions
// messages each over loopback UDP under mild chaos, every log recorded into
// a throwaway shard store. Work is delivered messages; Detail carries the
// violation/recording counts (chaos seeds are fixed, so the work is
// identical across machines).
func benchSoak(sessions int) (Benchmark, error) {
	dir, err := os.MkdirTemp("", "nfbench-soak-*")
	if err != nil {
		return Benchmark{}, err
	}
	defer os.RemoveAll(dir)
	store, err := trace.NewShardStore(dir, 8)
	if err != nil {
		return Benchmark{}, err
	}
	sv, err := netlink.NewServer("")
	if err != nil {
		return Benchmark{}, err
	}
	defer sv.Close()
	start := time.Now()
	rep, err := sv.RunSoak(netlink.SoakConfig{
		Protocols: []protocol.Protocol{protocol.NewSeqNum(), protocol.NewAltBit(), protocol.NewCntK(4)},
		Sessions:  sessions,
		Messages:  8,
		Chaos:     netlink.ChaosConfig{DropProb: 0.05, HoldProb: 0.2, DupProb: 0.1},
		Seed:      1,
		Workers:   16,
		Store:     store,
	})
	elapsed := time.Since(start)
	if err != nil {
		return Benchmark{}, fmt.Errorf("soak: %w", err)
	}
	if cerr := store.Close(); cerr != nil {
		return Benchmark{}, fmt.Errorf("soak store: %w", cerr)
	}
	if rep.Errors > 0 || rep.Recorded != rep.Sessions {
		return Benchmark{}, fmt.Errorf("soak: %d errors, %d/%d recorded", rep.Errors, rep.Recorded, rep.Sessions)
	}
	return Benchmark{
		Name:      "netlink/soak",
		Metric:    "msgs",
		Work:      int64(rep.Deliveries),
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		Rate:      rate(int64(rep.Deliveries), elapsed),
		Detail: fmt.Sprintf("sessions=%d violations=%d dl3=%d recorded=%d",
			rep.Sessions, rep.Violations, rep.DL3, rep.Recorded),
	}, nil
}

func rate(work int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(work) / elapsed.Seconds()
}
