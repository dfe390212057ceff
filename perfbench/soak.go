package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	nonfifo "repro"
	"repro/internal/trace"
)

// soakChaos is the fixed wire chaos every soak session runs under.
var soakChaos = nonfifo.ChaosConfig{DropProb: 0.05, HoldProb: 0.2, DupProb: 0.1}

// soakProtocols are assigned to sessions round-robin. seqnum and cntk4 are
// declared DL-sound, so a safety verdict on one of their sessions is a
// failure; altbit is declared attackable and breaks under chaos.
var soakProtocols = []string{"seqnum", "altbit", "cntk4"}

// soakWL is a closed loop of lock-step sessions through one server: each
// worker starts its next session when the previous one is recorded. The
// workload seed is the soak's root seed.
type soakWL struct {
	seed     int64
	sessions int
	workers  int
	protos   []nonfifo.Protocol
	sound    map[string]bool
	sv       *nonfifo.SoakServer
	tmp      string

	stores []string // one shard directory per round, replayed by check
}

func newSoak(seed int64, sz size) workload {
	w := &soakWL{seed: seed, sessions: 2048}
	if sz == sizeTiny {
		w.sessions = 16
	}
	// Never more workers than CPUs, and no more than two, so the load has
	// the same shape on a bigger machine.
	w.workers = min(2, runtime.NumCPU())
	return w
}

func (w *soakWL) config(store *nonfifo.ShardStore, sessions int) nonfifo.SoakConfig {
	return nonfifo.SoakConfig{
		Protocols: w.protos, Sessions: sessions, Messages: 8, Chaos: soakChaos,
		Seed: w.seed, Workers: w.workers, Store: store, Clock: time.Now,
	}
}

// setup resolves the protocols, binds the server socket, makes the temp dir
// the shard stores go to, and warms up with a 256-session soak.
func (w *soakWL) setup() error {
	w.sound = map[string]bool{}
	for _, n := range soakProtocols {
		p, err := lookupProtocol(n)
		if err != nil {
			return err
		}
		w.protos = append(w.protos, p)
		if d, ok := p.(interface{ AttackBounds() (int, int) }); ok {
			o, m := d.AttackBounds()
			w.sound[n] = o == 0 && m == 0
		}
	}
	var err error
	if w.tmp, err = os.MkdirTemp("", "perfbench-soak-*"); err != nil {
		return err
	}
	if w.sv, err = nonfifo.NewSoakServer(""); err != nil {
		return err
	}
	store, err := nonfifo.NewShardStore(filepath.Join(w.tmp, "warm-up"), 8)
	if err != nil {
		return err
	}
	if _, err := w.sv.RunSoak(w.config(store, 256)); err != nil {
		return fmt.Errorf("warm-up soak: %w", err)
	}
	return store.Close()
}

func (w *soakWL) round(tr *tracer, root int, g *gate) (roundStats, error) {
	dir := filepath.Join(w.tmp, "round-"+strconv.Itoa(len(w.stores)))
	store, err := nonfifo.NewShardStore(dir, 8)
	if err != nil {
		return roundStats{}, err
	}
	w.stores = append(w.stores, dir)
	var rep *nonfifo.SoakReport
	d := tr.timed(root, "netlink.RunSoak", func() { rep, err = w.sv.RunSoak(w.config(store, w.sessions)) })
	if err != nil {
		return roundStats{}, err
	}
	closeT := tr.timed(root, "trace.Close", func() { err = store.Close() })
	if err != nil {
		return roundStats{}, err
	}
	for _, o := range rep.Outcomes {
		g.expect(o.Err == "", "soak session %s (%s): %s", o.Session, o.Protocol, o.Err)
		g.expect(o.Recorded, "soak session %s (%s) was not recorded", o.Session, o.Protocol)
		if w.sound[o.Protocol] {
			g.expect(o.Verdict == "", "soak session %s: %s violated by declared-sound %s", o.Session, o.Verdict, o.Protocol)
		}
	}
	g.expect(len(rep.Outcomes) == w.sessions, "soak ran %d of %d sessions", len(rep.Outcomes), w.sessions)
	rs := roundStats{
		calls: []call{
			{secs: d.Seconds(), work: float64(rep.Deliveries), base: true},
			{secs: closeT.Seconds()},
		},
		p50: float64(rep.LatP50.Nanoseconds()) / 1e3, p95: float64(rep.LatP95.Nanoseconds()) / 1e3,
		latN: rep.Messages, wire: true,
	}
	rs.counts = fmt.Sprintf("%d sessions, %d messages, %d deliveries, %d violations, %d DL3, %d recorded",
		rep.Sessions, rep.Messages, rep.Deliveries, rep.Violations, rep.DL3, rep.Recorded)
	rs.layer = layerMetrics{
		"netlink.sessions":        float64(rep.Sessions),
		"netlink.deliveries":      float64(rep.Deliveries),
		"netlink.violations":      float64(rep.Violations),
		"netlink.latency_samples": float64(rep.Messages),
		"trace.close_ms":          float64(closeT.Nanoseconds()) / 1e6,
	}
	return rs, nil
}

// check reads every recorded session back from its shard store and replays
// it: the replay must re-record the log bit for bit and reproduce its
// verdict.
func (w *soakWL) check(tr *tracer, g *gate, lm layerMetrics) error {
	var (
		total time.Duration
		n     int
	)
	for _, dir := range w.stores {
		m, err := nonfifo.ReadShardManifest(dir)
		if err != nil {
			return err
		}
		g.expect(len(m.Entries) == w.sessions, "%s lists %d of %d sessions", dir, len(m.Entries), w.sessions)
		for _, e := range m.Entries {
			l, err := nonfifo.ReadShardLog(dir, m, e.Session)
			if err != nil {
				g.expect(false, "read %s from %s: %v", e.Session, dir, err)
				continue
			}
			var rr *nonfifo.ReplayResult
			total += tr.timed(0, "replay.Replay", func() { rr, err = nonfifo.Replay(l) })
			n++
			g.expect(err == nil && rr.Divergence == nil && rr.VerdictMatches && sameRecording(l, rr.Log),
				"session %s of %s does not replay bit for bit (err %v)", e.Session, dir, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	w.stores = nil
	lm["replay.soak_replay_us"] = ratio{float64(total.Nanoseconds()) / 1e3, float64(n)}.value()
	return nil
}

// sameRecording reports whether a replay re-recorded the log bit for bit:
// the same NFT bytes once the replay's own source tag ("replay") is set
// back to the recording's.
func sameRecording(rec, rep *nonfifo.TraceLog) bool {
	rep = rep.Clone()
	rep.SetMeta(trace.MetaSource, rec.Meta[trace.MetaSource])
	var x, y bytes.Buffer
	if rec.Encode(&x) != nil || rep.Encode(&y) != nil {
		return false
	}
	return bytes.Equal(x.Bytes(), y.Bytes())
}

// probe measures the loopback wire floor, then re-runs the round's sessions
// one RunSession call at a time (same seeds, same worker count) to read each
// session's wire and chaos counters, and records each log with its own
// ShardStore.Put.
func (w *soakWL) probe(tr *tracer, lm layerMetrics, g *gate) error {
	rtt, err := udpRTT(2000)
	if err != nil {
		return err
	}
	lm["netlink.udp_rtt_us"] = rtt
	store, err := nonfifo.NewShardStore(filepath.Join(w.tmp, "probe"), 8)
	if err != nil {
		return err
	}
	var (
		mu                 sync.Mutex
		sessionMS, putUS   []float64
		elapsed            time.Duration
		messages, putBytes int
		sum                [6]int // drops, holds, dups, stale lifted, wire lost, forced releases
		firstErr           error
		wg                 sync.WaitGroup
	)
	ids := make(chan int)
	for k := 0; k < w.workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range ids {
				cfg := nonfifo.SoakSessionConfig{
					Protocol: w.protos[id%len(w.protos)], Messages: 8, Chaos: soakChaos,
					Seed:  nonfifo.SplitSeed(w.seed, "session/"+strconv.Itoa(id)),
					Clock: time.Now,
				}
				var res *nonfifo.SoakSessionResult
				var rerr error
				d := tr.timed(0, "netlink.RunSession", func() { res, rerr = w.sv.RunSession(cfg) })
				var entry nonfifo.ShardManifestEntry
				var perr error
				var p time.Duration
				if rerr == nil {
					p = tr.timed(0, "trace.Put", func() { entry, perr = store.Put("p"+strconv.Itoa(id), res.Log) })
				}
				mu.Lock()
				switch {
				case rerr != nil && firstErr == nil:
					firstErr = rerr
				case perr != nil && firstErr == nil:
					firstErr = perr
				case rerr == nil && perr == nil:
					sessionMS = append(sessionMS, float64(d.Nanoseconds())/1e6)
					putUS = append(putUS, float64(p.Nanoseconds())/1e3)
					putBytes += int(entry.Length)
					elapsed += res.Stats.Elapsed
					messages += res.Stats.Messages
					st := res.Stats
					for i, v := range []int{st.ChaosDrops, st.ChaosHolds, st.ChaosDups,
						st.StaleLifted, st.WireLost, st.ForcedReleases} {
						sum[i] += v
					}
				}
				mu.Unlock()
			}
		}()
	}
	for id := 0; id < w.sessions; id++ {
		ids <- id
	}
	close(ids)
	wg.Wait()
	if cerr := store.Close(); firstErr == nil {
		firstErr = cerr
	}
	if firstErr != nil {
		return firstErr
	}
	lm["netlink.session_ms_p50"], _ = percentile(sessionMS, 0.50)
	lm["netlink.session_ms_p99"], _ = percentile(sessionMS, 0.99)
	lm["netlink.step_us_per_msg"] = ratio{float64(elapsed.Nanoseconds()) / 1e3, float64(messages)}.value()
	for i, name := range []string{"chaos_drops", "chaos_holds", "chaos_dups", "stale_lifted", "wire_lost", "forced_releases"} {
		lm["netlink."+name] = float64(sum[i])
	}
	lm["trace.put_us"], _ = percentile(putUS, 0.50)
	lm["trace.put_bytes"] = ratio{float64(putBytes), float64(len(putUS))}.value()
	g.noteBase("netlink.session_ms_p50/p99 over %d sessions; step_us_per_msg = session time / %d messages",
		len(sessionMS), messages)
	return nil
}

// udpRTT is the median round trip, in µs, of a protocol-sized datagram
// between two loopback sockets: the wire floor under a soak message.
func udpRTT(n int) (float64, error) {
	a, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer b.Close()
	msg := nonfifo.EncodePacket(nonfifo.Packet{Header: "d0", Payload: "msg-0"})
	buf := make([]byte, 256)
	rtts := make([]float64, 0, n)
	deadline := time.Now().Add(10 * time.Second)
	if err := a.SetReadDeadline(deadline); err != nil {
		return 0, err
	}
	if err := b.SetReadDeadline(deadline); err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := a.WriteTo(msg, b.LocalAddr()); err != nil {
			return 0, err
		}
		k, from, err := b.ReadFrom(buf)
		if err != nil {
			return 0, err
		}
		if _, err := b.WriteTo(buf[:k], from); err != nil {
			return 0, err
		}
		if _, _, err := a.ReadFrom(buf); err != nil {
			return 0, err
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(rtts), nil
}

func (w *soakWL) close() {
	if w.sv != nil {
		w.sv.Close()
	}
	if w.tmp != "" {
		os.RemoveAll(w.tmp)
	}
}
