package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	nonfifo "repro"
	"repro/internal/fuzz"
)

// campaignSpec is one serial Fuzz campaign with its known answer: want is
// the safety property the campaign must certify, "" for a protocol that
// must come out clean.
type campaignSpec struct {
	proto  string
	seed   int64
	budget int64
	want   string
}

// The campaign panels. Campaign seeds are fixed rather than drawn from the
// workload seed: at a fixed budget, a campaign's work depends so strongly
// on its seed (the share of violating inputs it breeds, each shrunk in
// full) that campaign time varies 55% (altbit, 1000 execs) across seeds, far
// beyond any usable bound. The workload seed orders the panel and seeds the
// traced run's Mutate probe. See README.md.
var (
	// altbit is declared attackable at (2, 3) and the fuzzer rediscovers its
	// DL1 from benign seeds within a few execs (EXPERIMENTS.md).
	violatingPanel = []campaignSpec{
		{"altbit", 1, 800, "DL1"}, {"altbit", 2, 800, "DL1"},
	}
	// Every protocol here is declared DL-sound or, for the unbounded-window
	// transports, proved at the default bounds (EXPERIMENTS.md): any
	// promoted violation is a failure.
	soundPanel = []campaignSpec{
		{"cntlinear", 1, 2000, ""}, {"seqnum", 1, 2000, ""},
		{"gbn-unbounded-w2", 1, 2000, ""}, {"swindow-unbounded-w2", 1, 2000, ""},
	}
	tinyViolatingPanel = []campaignSpec{{"altbit", 1, 100, "DL1"}}
	tinySoundPanel     = []campaignSpec{{"cntlinear", 1, 100, ""}}
)

// fuzzWL runs a panel of serial campaigns (Workers: 1, the deterministic
// loop; the parallel merge runs in arrival order and changes the work from
// run to run).
type fuzzWL struct {
	seed   int64
	panel  []campaignSpec
	protos []nonfifo.Protocol
	tmp    string

	rounds int
	certs  []cert // the first round's certificates, replayed by check
}

type cert struct {
	spec campaignSpec
	v    *nonfifo.FuzzViolation
}

func newFuzz(seed int64, sz size, sound bool) workload {
	panel := violatingPanel
	switch {
	case sound && sz == sizeTiny:
		panel = tinySoundPanel
	case sound:
		panel = soundPanel
	case sz == sizeTiny:
		panel = tinyViolatingPanel
	}
	return &fuzzWL{seed: seed, panel: panel}
}

// setup orders the panel by the seed, resolves the protocols, makes the temp
// dir the traced run's corpora and certificates go to, and warms each
// protocol up with a 200-exec campaign.
func (w *fuzzWL) setup() error {
	w.panel = append([]campaignSpec(nil), w.panel...)
	rng := rand.New(rand.NewSource(w.seed))
	rng.Shuffle(len(w.panel), func(i, j int) { w.panel[i], w.panel[j] = w.panel[j], w.panel[i] })
	var err error
	if w.tmp, err = os.MkdirTemp("", "perfbench-fuzz-*"); err != nil {
		return err
	}
	warm := map[string]bool{}
	for _, c := range w.panel {
		p, err := lookupProtocol(c.proto)
		if err != nil {
			return err
		}
		w.protos = append(w.protos, p)
		if warm[c.proto] {
			continue
		}
		warm[c.proto] = true
		if _, err := nonfifo.Fuzz(nonfifo.FuzzConfig{Protocol: p, Budget: 200, Seed: 0, Workers: 1}); err != nil {
			return fmt.Errorf("warm-up fuzz %s: %w", c.proto, err)
		}
	}
	return nil
}

// execClock is the campaign's injected clock. The campaign reads it once per
// execution when a stats writer is set, so the gaps between readings are
// per-execution latencies, promotion and shrinking included.
type execClock struct{ stamps []time.Time }

func (c *execClock) now() time.Time {
	t := time.Now()
	c.stamps = append(c.stamps, t)
	return t
}

// gaps returns the µs between consecutive readings, without the last one
// (the final reading closes the campaign, not an execution).
func (c *execClock) gaps() []float64 {
	var out []float64
	for i := 1; i < len(c.stamps)-1; i++ {
		out = append(out, float64(c.stamps[i].Sub(c.stamps[i-1]).Nanoseconds())/1e3)
	}
	return out
}

func (w *fuzzWL) config(i int) nonfifo.FuzzConfig {
	c := w.panel[i]
	return nonfifo.FuzzConfig{Protocol: w.protos[i], Budget: c.budget, Seed: c.seed, Workers: 1}
}

func (w *fuzzWL) round(tr *tracer, root int, g *gate) (roundStats, error) {
	var (
		lat                                  []float64
		calls                                []call
		secs                                 float64
		execs, corpus, cover, ops, dl3Misses int64
		counts                               string
	)
	first := w.rounds == 0
	w.rounds++
	for i, c := range w.panel {
		clk := &execClock{}
		cfg := w.config(i)
		cfg.Clock, cfg.Stats, cfg.StatsEvery = clk.now, io.Discard, time.Duration(math.MaxInt64)
		var (
			res *nonfifo.FuzzResult
			err error
		)
		settle()
		d := tr.timed(root, "fuzz.Fuzz", func() { res, err = nonfifo.Fuzz(cfg) })
		if err != nil {
			return roundStats{}, fmt.Errorf("fuzz %s seed %d: %w", c.proto, c.seed, err)
		}
		secs += d.Seconds()
		calls = append(calls, call{secs: d.Seconds(), work: float64(res.Execs), base: true})
		lat = append(lat, clk.gaps()...)
		execs += res.Execs
		corpus += int64(res.CorpusSize)
		cover += int64(res.CoveragePoints)
		dl3Misses += res.DL3Misses
		found := map[string]bool{}
		for _, v := range res.Violations {
			found[v.Property] = true
			ops += int64(v.Ops)
			counts += fmt.Sprintf(" %s:%d", v.Property, v.Ops)
			if first {
				w.certs = append(w.certs, cert{c, v})
			}
		}
		if c.want == "" {
			g.expect(len(res.Violations) == 0, "fuzz %s seed %d: %d violations on a sound protocol",
				c.proto, c.seed, len(res.Violations))
		} else {
			g.expect(found[c.want], "fuzz %s seed %d: no %s certificate (found %v)", c.proto, c.seed, c.want, found)
		}
	}
	rs := roundStats{calls: calls}
	rs.p50, rs.latN = percentile(lat, 0.50)
	rs.p95, _ = percentile(lat, 0.95)
	rs.counts = fmt.Sprintf("%d campaigns: %d execs, corpus %d, coverage %d, DL3 misses %d, certificates%s",
		len(w.panel), execs, corpus, cover, dl3Misses, counts)
	rs.layer = layerMetrics{
		"fuzz.execs":                float64(execs),
		"fuzz.corpus_size":          float64(corpus),
		"fuzz.coverage_points":      float64(cover),
		"fuzz.cert_ops":             float64(ops),
		"fuzz.dl3_misses":           float64(dl3Misses),
		"fuzz.campaign_us_per_exec": ratio{secs * 1e6, float64(execs)}.value(),
	}
	return rs, nil
}

// check replays every certificate: it must reproduce its verdict without
// diverging.
func (w *fuzzWL) check(tr *tracer, g *gate, lm layerMetrics) error {
	for _, c := range w.certs {
		var (
			rr  *nonfifo.ReplayResult
			err error
		)
		tr.timed(0, "replay.Replay", func() { rr, err = nonfifo.Replay(c.v.Cert) })
		g.expect(err == nil && rr.Divergence == nil && rr.VerdictMatches,
			"%s certificate of fuzz %s seed %d does not replay (err %v)", c.v.Property, c.spec.proto, c.spec.seed, err)
	}
	return nil
}

// probe re-runs each campaign with corpus persistence on, loads the corpus,
// and times every campaign stage over it one call at a time: execution
// without and with a log, trim, seeded mutation, the shrink of every
// violating input (in the corpus's on-disk order) and the livelock
// certifier on every DL3-only input. Certificates are written with the
// trace codec.
func (w *fuzzWL) probe(tr *tracer, lm layerMetrics, g *gate) error {
	var (
		n, violating, dl3Only                       int
		execT, logT, trimT, mutT, shrinkT, certifyT time.Duration
		writeT                                      time.Duration
		replays, useful, refused                    int
	)
	rng := rand.New(rand.NewSource(w.seed))
	for i, c := range w.panel {
		dir := filepath.Join(w.tmp, "corpus-"+strconv.Itoa(i))
		cfg := w.config(i)
		cfg.CorpusDir = dir
		var err error
		tr.timed(0, "fuzz.FuzzWithCorpusDir", func() { _, err = nonfifo.Fuzz(cfg) })
		if err != nil {
			return err
		}
		var inputs []*fuzz.Input
		tr.timed(0, "fuzz.LoadCorpus", func() { inputs, err = fuzz.LoadCorpus(dir) })
		if err != nil {
			return err
		}
		writeT += tr.timed(0, "fuzz.SaveCorpus", func() { err = fuzz.SaveCorpus(dir+"-copy", inputs) })
		if err != nil {
			return err
		}
		core := fuzz.NewCore(w.protos[i])
		best := math.MaxInt
		for _, in := range inputs {
			n++
			var res, logged *fuzz.ExecResult
			execT += tr.timed(0, "fuzz.Execute", func() { res = core.Execute(in, false) })
			logT += tr.timed(0, "fuzz.ExecuteWithLog", func() { logged = core.Execute(in, true) })
			trimT += tr.timed(0, "fuzz.Trim", func() { fuzz.Trim(in, res) })
			mutT += tr.timed(0, "fuzz.Mutate", func() { fuzz.Mutate(in, rng) })
			switch {
			case res.Verdict != nil:
				violating++
				var sr *nonfifo.ShrinkResult
				shrinkT += tr.timed(0, "replay.Shrink", func() { sr, err = nonfifo.Shrink(logged.Log) })
				if err != nil {
					return fmt.Errorf("shrink %s corpus input: %w", c.proto, err)
				}
				replays += sr.Replays
				if sr.FinalOps < best {
					best = sr.FinalOps
					useful++
				}
			case res.DL3 != nil:
				dl3Only++
				certifyT += tr.timed(0, "replay.CertifyLivelock", func() {
					_, err = nonfifo.CertifyLivelock(logged.Log, nonfifo.CertifyOptions{})
				})
				if err != nil {
					refused++
				}
			}
		}
	}
	var encodeT time.Duration
	for i, c := range w.certs {
		path := filepath.Join(w.tmp, fmt.Sprintf("cert-%d.nft", i))
		var err error
		encodeT += tr.timed(0, "trace.WriteFile", func() { err = nonfifo.WriteTraceFile(path, c.v.Cert) })
		if err != nil {
			return err
		}
	}
	us := func(d time.Duration, k int) float64 { return ratio{float64(d.Nanoseconds()) / 1e3, float64(k)}.value() }
	lm["trace.encode_us"] = us(encodeT, len(w.certs))
	lm["fuzz.exec_us"] = us(execT, n)
	lm["fuzz.exec_log_us"] = us(logT, n)
	lm["fuzz.trim_us"] = us(trimT, n)
	lm["fuzz.mutate_us"] = us(mutT, n)
	lm["fuzz.violating_frac"] = ratio{float64(violating), float64(n)}.value()
	lm["fuzz.corpus_write_ms"] = us(writeT, len(w.panel)) / 1e3
	lm["fuzz.campaign_over_exec"] = ratio{lm["fuzz.campaign_us_per_exec"], lm["fuzz.exec_us"]}.value()
	lm["replay.shrink_ms"] = us(shrinkT, violating) / 1e3
	lm["replay.shrink_calls"] = float64(violating)
	lm["replay.shrink_replays"] = float64(replays)
	lm["replay.shrink_useful_frac"] = ratio{float64(useful), float64(violating)}.value()
	lm["replay.certify_ms"] = us(certifyT, dl3Only) / 1e3
	lm["replay.certify_calls"] = float64(dl3Only)
	lm["replay.certify_refused_frac"] = ratio{float64(refused), float64(dl3Only)}.value()
	g.noteBase("fuzz.campaign_over_exec = %.4g µs per campaign exec / %.4g µs per Core.Execute",
		lm["fuzz.campaign_us_per_exec"], lm["fuzz.exec_us"])
	g.noteBase("fuzz.violating_frac = %d violating / %d corpus inputs", violating, n)
	g.noteBase("replay.shrink_useful_frac = %d shrinks that beat the best certificate so far / %d shrinks", useful, violating)
	g.noteBase("replay.certify_refused_frac = %d refused / %d DL3-only inputs", refused, dl3Only)
	return nil
}

func (w *fuzzWL) close() {
	if w.tmp != "" {
		os.RemoveAll(w.tmp)
	}
}
