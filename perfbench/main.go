// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the prover, the fuzz campaign or the soak server, checks
// every output against known answers, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd); with
// --trace 1 the run alternates untraced and traced rounds and reports the
// per-layer ones (perLayer), including the tracer's own overhead.
//
// Usage, from anywhere:
//
//	python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0
//
// run.py builds this package and runs it; `go run .` inside this directory
// does the same by hand. README.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart approximates the process start for the set-up report.
var processStart = time.Now()

// size scales a workload: full is the benchmark, tiny is for smoke tests.
type size int

const (
	sizeFull size = iota
	sizeTiny
)

// workload is one benchmark workload. setup builds everything a round needs
// (and is repeated to measure set-up time); round is the timed unit of work
// and judges its verdicts as it reaches them; check replays what the rounds
// produced, outside the timed window; probe times the layers one call at a
// time, in the traced run only. check and probe record their layer figures
// in lm, which only the traced run reports.
type workload interface {
	setup() error
	round(tr *tracer, root int, g *gate) (roundStats, error)
	check(tr *tracer, g *gate, lm layerMetrics) error
	probe(tr *tracer, lm layerMetrics, g *gate) error
	close()
}

// workloads maps names to constructors.
var workloads = map[string]func(seed int64, sz size) workload{
	"explore":        newExplore,
	"fuzz-violating": func(seed int64, sz size) workload { return newFuzz(seed, sz, false) },
	"fuzz-sound":     func(seed int64, sz size) workload { return newFuzz(seed, sz, true) },
	"soak":           newSoak,
}

// roundStats is what one round reports. counts fingerprint the work done:
// they must repeat exactly between rounds, except where the work crosses
// real sockets.
type roundStats struct {
	calls       []call  // the round's timed calls into the engines, same order every round
	p50, p95    float64 // latency percentiles in µs, unless callLatency
	latN        int     // latency sample count
	callLatency bool    // latency per unit of work: each call's median time over its work
	counts      string  // work fingerprint
	wire        bool    // counts depend on live sockets: a change is drift, not failure
	layer       layerMetrics

	// Filled in by the loop.
	secs   float64 // wall time of the whole round
	rssMB  float64 // peak resident memory during the round
	traced bool
	spans  []span // the round's spans (traced rounds only)
}

// call is one timed call into an engine: its wall time, the units of work
// it did (configs, execs or messages), and whether its time counts toward
// work_per_s's base.
type call struct {
	secs float64
	work float64
	base bool
}

// layerMetrics collects per-layer values by metric name.
type layerMetrics map[string]float64

// gate counts attempted operations and failed ones: a verdict differing from
// the known answer, a certificate that does not replay, a lost recording.
// drift collects work counts that differ from their recorded baseline,
// which is reported but is not a failure; bases states the two numbers
// behind each reported ratio.
type gate struct {
	attempted, failed   int64
	notes, drift, bases []string
}

// expect records one attempted operation, failed unless ok.
func (g *gate) expect(ok bool, format string, args ...any) {
	g.attempted++
	if ok {
		return
	}
	g.failed++
	if len(g.notes) < 20 {
		g.notes = append(g.notes, fmt.Sprintf(format, args...))
	}
}

// noteDrift records a work count that moved from its baseline.
func (g *gate) noteDrift(format string, args ...any) {
	g.drift = append(g.drift, fmt.Sprintf(format, args...))
}

// noteBase records the base of a reported ratio.
func (g *gate) noteBase(format string, args ...any) {
	g.bases = append(g.bases, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		name     = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "workload seed")
		seconds  = fs.Float64("seconds", 10, "how long to run timed rounds")
		traceArg = fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
		spansOut = fs.String("spans", "", "traced run: write the spans as JSON lines to this file")
		sizeArg  = fs.String("size", "full", "full, or tiny for a smoke test")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(errw, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traceArg != 0 && *traceArg != 1 {
		fmt.Fprintln(errw, "perfbench: --trace must be 0 or 1")
		return 2
	}
	sz := sizeFull
	switch *sizeArg {
	case "full":
	case "tiny":
		sz = sizeTiny
	default:
		fmt.Fprintf(errw, "perfbench: unknown size %q\n", *sizeArg)
		return 2
	}
	traced := *traceArg == 1

	env := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		*name, *seed, *seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)

	res, err := measure(mk, *name, *seed, sz, *seconds, traced, *spansOut, env, out)
	if err != nil {
		fmt.Fprintln(errw, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(errw, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measure sets the workload up, runs timed rounds for the given seconds,
// runs the correctness gate, and (traced) the layer probes.
func measure(mk func(int64, size) workload, name string, seed int64, sz size, seconds float64,
	traced bool, spansOut string, env map[string]any, out io.Writer) (*result, error) {
	var (
		w      workload
		setups []float64
	)
	reps := setupReps
	if sz == sizeTiny {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		begin := time.Now()
		w = mk(seed, sz)
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(begin).Seconds())
		if i < reps-1 {
			w.close()
		}
	}
	defer w.close()
	fmt.Fprintf(out, "setup: median %.4fs over %d set-ups (%.4fs from process start to the first round)\n",
		median(setups), len(setups), time.Since(processStart).Seconds())

	tr := newTracer(name)
	g := &gate{}
	var rounds []roundStats
	begin := time.Now()
	minRounds := 1
	if traced {
		minRounds = 2 // one untraced and one traced round at least
	}
	for len(rounds) < minRounds || time.Since(begin).Seconds() < seconds {
		on := traced && len(rounds)%2 == 1
		// Start every round from a collected heap, so one round's garbage
		// does not shift the next round's collections.
		resetPeakRSS()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		gcBefore := ms.NumGC
		tr.enable(on)
		before := len(tr.snapshot())
		t0 := time.Now()
		root := tr.start(0, "bench.round")
		rs, err := w.round(tr, root, g)
		tr.end(root)
		rs.secs = time.Since(t0).Seconds()
		rs.rssMB = peakRSSMB()
		tr.enable(false)
		runtime.ReadMemStats(&ms)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", name, len(rounds)+1, err)
		}
		rs.traced = on
		if rs.layer == nil {
			rs.layer = layerMetrics{}
		}
		rs.layer["bench.gc_cycles"] = float64(ms.NumGC - gcBefore)
		if on {
			rs.spans = tr.snapshot()[before:]
		}
		if len(rounds) > 0 {
			same := rs.counts == rounds[0].counts
			format := "round %d did different work: %s, round 1: %s"
			switch {
			case !rs.wire:
				g.expect(same, format, len(rounds)+1, rs.counts, rounds[0].counts)
			case !same:
				g.noteDrift(format, len(rounds)+1, rs.counts, rounds[0].counts)
			}
		}
		rounds = append(rounds, rs)
	}
	fmt.Fprintf(out, "rounds: %d in %.2fs; work per round: %s\n", len(rounds), time.Since(begin).Seconds(), rounds[0].counts)
	for i, r := range rounds {
		fmt.Fprintf(out, "  round %d: %.4fs traced=%v\n", i+1, r.secs, r.traced)
	}

	tr.enable(traced)
	lm := layerMetrics{}
	if err := w.check(tr, g, lm); err != nil {
		return nil, fmt.Errorf("%s check: %w", name, err)
	}
	res := &result{Metrics: map[string]metricValue{}}
	if traced {
		if err := layerReport(w, tr, rounds, lm, g); err != nil {
			return nil, err
		}
		if spansOut != "" {
			if err := writeSpans(spansOut, env, tr.snapshot()); err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.snapshot()), spansOut)
		}
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{lm[m.Name], m.Unit}
			fmt.Fprintf(out, "  %-30s %14.4f %s\n", m.Name, lm[m.Name], m.Unit)
		}
		for k := range lm {
			if _, ok := res.Metrics[k]; !ok {
				return nil, fmt.Errorf("workload %s reported undeclared metric %q", name, k)
			}
		}
	} else {
		e2e, latNote := endToEndReport(rounds, setups)
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{e2e[m.Name], m.Unit}
			fmt.Fprintf(out, "  %-16s %14.4f %s\n", m.Name, e2e[m.Name], m.Unit)
		}
		fmt.Fprintf(out, "  latency: %s\n", latNote)
	}
	for _, b := range g.bases {
		fmt.Fprintln(out, "  BASE", b)
	}
	for _, d := range g.drift {
		fmt.Fprintln(out, "  DRIFT", d)
	}
	res.Attempted, res.Failed = g.attempted, g.failed
	res.Correct = g.failed == 0
	fmt.Fprintf(out, "gate: %d attempted, %d failed (failed_frac %.4f)\n",
		g.attempted, g.failed, ratio{float64(g.failed), float64(g.attempted)}.value())
	for _, n := range g.notes {
		fmt.Fprintln(out, "  FAIL", n)
	}
	return res, nil
}

// endToEndReport reduces the rounds. Each call's time is its median over
// the rounds, so a burst of machine noise in one round moves no figure:
// suite_s sums the calls' medians, work_per_s divides the work by the base
// calls' medians, and peak memory is the median of the rounds' peaks. The
// note states what the latency percentiles were taken over.
func endToEndReport(rounds []roundStats, setups []float64) (map[string]float64, string) {
	calls := make([]float64, len(rounds[0].calls))
	var suite, work, base float64
	for i, c := range rounds[0].calls {
		var secs []float64
		for _, r := range rounds {
			secs = append(secs, r.calls[i].secs)
		}
		calls[i] = median(secs)
		suite += calls[i]
		if c.base {
			work += c.work
			base += calls[i]
		}
	}
	var p50s, p95s, rss []float64
	latN := 0
	for _, r := range rounds {
		p50s = append(p50s, r.p50)
		p95s = append(p95s, r.p95)
		rss = append(rss, r.rssMB)
		latN += r.latN
	}
	p50, p95 := median(p50s), median(p95s)
	note := fmt.Sprintf("per-round percentiles over %d samples, median of %d rounds", latN, len(rounds))
	if rounds[0].callLatency {
		note = fmt.Sprintf("%d units of work at their call's median time per unit over %d rounds",
			rounds[0].latN, len(rounds))
		// One sample per unit of work, each at its call's median time per
		// unit.
		var per, units []float64
		for i, c := range rounds[0].calls {
			per = append(per, ratio{calls[i] * 1e6, c.work}.value())
			units = append(units, c.work)
		}
		p50 = weightedPercentile(per, units, 0.50)
		p95 = weightedPercentile(per, units, 0.95)
	}
	return map[string]float64{
		"setup_s":        median(setups),
		"suite_s":        suite,
		"work_per_s":     ratio{work, base}.value(),
		"latency_p50_us": p50,
		"latency_p95_us": p95,
		"peak_rss_mb":    median(rss),
	}, note
}

// layerReport adds to lm the traced rounds' layer figures (medians), the
// self-time split, the tracer overhead and the workload's probes.
func layerReport(w workload, tr *tracer, rounds []roundStats, lm layerMetrics, g *gate) error {
	var untraced, tracedSecs []float64
	perName := map[string][]float64{}
	for _, r := range rounds {
		if !r.traced {
			untraced = append(untraced, r.secs)
			continue
		}
		tracedSecs = append(tracedSecs, r.secs)
		for k, v := range r.layer {
			perName[k] = append(perName[k], v)
		}
		for k, v := range selfTimes(r.spans) {
			perName["self."+k+"_s"] = append(perName["self."+k+"_s"], v)
		}
	}
	for k, vs := range perName {
		lm[k] = median(vs)
	}
	lm["bench.untraced_round_s"] = median(untraced)
	lm["bench.traced_round_s"] = median(tracedSecs)
	lm["bench.trace_overhead_s"] = median(tracedSecs) - median(untraced)
	if err := w.probe(tr, lm, g); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	lm["bench.spans"] = float64(len(tr.snapshot()))
	return nil
}

// settle collects the heap, so the timed call that follows starts from the
// same state whatever ran before it: the previous call's garbage does not
// set off its collections.
func settle() { runtime.GC() }

// resetPeakRSS collects the heap, returns freed memory to the system and
// restarts the kernel's peak-RSS counter, so the next peakRSSMB reading
// covers only what follows. Where the counter cannot be reset, peakRSSMB
// reads the process's peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set size in MiB since the last
// resetPeakRSS (Linux VmHWM), or over the whole process when the status
// file is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
