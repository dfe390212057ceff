package transport_test

// External test package: the quotient tests drive the endpoints through
// sim.Runner, and replay (which the rest of the suite uses) imports
// transport — an internal test package would cycle.

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

func TestDeclaresDerivedBounds(t *testing.T) {
	cases := []struct {
		p       protocol.Protocol
		bounded bool
		headers int
	}{
		{transport.New(4, 2), true, 8},
		{transport.NewGoBackN(6, 3), true, 12},
		{transport.New(0, 2), false, 0},
		{transport.NewGoBackN(0, 1), false, 0},
	}
	for _, tc := range cases {
		b := tc.p.(protocol.Bounded).Bounds()
		if b.StateBounded != tc.bounded || b.Headers != tc.headers {
			t.Errorf("%s: Bounds() = %+v, want StateBounded=%v Headers=%d",
				tc.p.Name(), b, tc.bounded, tc.headers)
		}
		if k, ok := tc.p.HeaderBound(); ok != tc.bounded || (ok && k != b.Headers) {
			t.Errorf("%s: HeaderBound() = (%d,%v) disagrees with Bounds() %+v", tc.p.Name(), k, ok, b)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, name := range []string{
		"swindow-s4-w2", "swindow-s8-w4", "swindow-unbounded-w2",
		"gbn-s4-w2", "gbn-s6-w3", "gbn-unbounded-w1",
	} {
		p, ok := transport.Parse(name)
		if !ok {
			t.Errorf("Parse(%q) not recognised", name)
			continue
		}
		if p.Name() != name {
			t.Errorf("Parse(%q).Name() = %q", name, p.Name())
		}
		switch p.(type) {
		case transport.SlidingWindow, transport.GoBackN:
		default:
			t.Errorf("Parse(%q) returned %T, want SlidingWindow or GoBackN", name, p)
		}
	}
	for _, name := range []string{
		"altbit", "swindow", "swindow-s0-w2", "swindow-sx-w2", "swindow-s4",
		"swindow-s4-w0", "gbn-unbounded", "gbn-s4-wx", "swindow-unbounded-w-1",
	} {
		if p, ok := transport.Parse(name); ok {
			t.Errorf("Parse(%q) = %v, want rejection", name, p.Name())
		}
	}
	for _, name := range transport.Names() {
		if _, ok := transport.Parse(name); !ok {
			t.Errorf("registry name %q does not Parse", name)
		}
	}
}

// jointKeys drives n messages to idle over reliable channels and returns
// the joint key (rendered by key) after each confirmed message.
func jointKeys(t *testing.T, p protocol.Protocol, n int, key func(interface{ StateKey() string }) string) []string {
	t.Helper()
	r := sim.NewRunner(sim.Config{Protocol: p})
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if err := r.RunMessage("m"); err != nil {
			t.Fatalf("%s: message %d: %v", p.Name(), i, err)
		}
		keys = append(keys, key(r.T)+"|"+key(r.R))
	}
	return keys
}

func stateKey(e interface{ StateKey() string }) string { return e.StateKey() }

// TestControlKeyWrapInvariance is the finiteness property the audit relies
// on: after a full trip around the sequence space the endpoints' control
// keys revisit earlier values (period S), while their StateKeys grow
// forever with the absolute counters.
func TestControlKeyWrapInvariance(t *testing.T) {
	const s = 4
	for _, p := range []protocol.Protocol{transport.New(s, 2), transport.NewGoBackN(s, 2)} {
		keys := jointKeys(t, p, 3*s, protocol.ControlKeyOf)
		for i := s; i < len(keys); i++ {
			if keys[i] != keys[i-s] {
				t.Errorf("%s: control key after message %d differs from message %d:\n %s\n %s",
					p.Name(), i, i-s, keys[i], keys[i-s])
			}
		}
		// The quotient is doing real work: the StateKeys never repeat.
		seen := make(map[string]bool)
		for i, k := range jointKeys(t, p, 3*s, stateKey) {
			if seen[k] {
				t.Fatalf("%s: StateKey repeated at message %d; the quotient would be vacuous", p.Name(), i)
			}
			seen[k] = true
		}
	}
}

// driveRecordedKeys replays one deterministic lossy schedule against a fresh
// endpoint pair and records the joint ControlKey and StateKey after every
// driver operation.
func driveRecordedKeys(t *testing.T, p protocol.Protocol) []string {
	t.Helper()
	r := sim.NewRunner(sim.Config{
		Protocol:   p,
		DataPolicy: channel.DropEvery(3),
		AckPolicy:  channel.DropEvery(4),
	})
	var keys []string
	snap := func() {
		keys = append(keys,
			protocol.ControlKeyOf(r.T)+"|"+protocol.ControlKeyOf(r.R)+"|"+r.T.StateKey()+"|"+r.R.StateKey())
	}
	for i := 0; i < 6; i++ {
		r.SubmitMsg("m" + strconv.Itoa(i))
		snap()
		for steps := 0; r.T.Busy() && steps < 200; steps++ {
			r.StepTransmit()
			r.DrainAcks()
			snap()
		}
	}
	return keys
}

// TestControlKeyReplayStability is the quotient's determinism regression
// (satellite of the statekey lint): two replays of the same schedule must
// produce byte-identical ControlKey/StateKey sequences for every registered
// transport protocol. Clock reads, map iteration or randomness in a key
// implementation would diverge here.
func TestControlKeyReplayStability(t *testing.T) {
	reg := transport.Registry()
	for _, name := range transport.Names() {
		p := reg[name]
		first := driveRecordedKeys(t, p)
		second := driveRecordedKeys(t, p)
		if len(first) != len(second) {
			t.Fatalf("%s: replays recorded %d vs %d key snapshots", name, len(first), len(second))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("%s: key snapshot %d unstable across replays:\n %s\n %s", name, i, first[i], second[i])
			}
		}
	}
}

// reachedStates is the set of distinct endpoint states (by StateKey) the
// schedules visited, in first-visit order.
type reachedStates struct {
	seen map[string]bool
	ts   []protocol.Transmitter
	rs   []protocol.Receiver
}

func (rs *reachedStates) add(tx protocol.Transmitter, rx protocol.Receiver) {
	if k := "T" + tx.StateKey(); !rs.seen[k] {
		rs.seen[k] = true
		rs.ts = append(rs.ts, tx.Clone())
	}
	if k := "R" + rx.StateKey(); !rs.seen[k] {
		rs.seen[k] = true
		rs.rs = append(rs.rs, rx.Clone())
	}
}

// reach adds the endpoint states one seeded lossy, reordering schedule
// visits. The channels are bags: every delivery and every drop picks a
// uniformly random in-transit packet, so stale copies from earlier wraps
// arrive late. Payloads come from a two-letter alphabet so that states a
// wrap apart can agree on everything but absolute sequence numbers.
func (rs *reachedStates) reach(p protocol.Protocol, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	tx, rx := p.New(channel.NoGenie{}, channel.NoGenie{})
	var data, acks []ioa.Packet
	take := func(bag []ioa.Packet) ([]ioa.Packet, ioa.Packet) {
		i := rng.Intn(len(bag))
		pkt := bag[i]
		return append(bag[:i], bag[i+1:]...), pkt
	}
	const maxInTransit = 6
	for step := 0; step < steps; step++ {
		rs.add(tx, rx)
		switch rng.Intn(9) {
		case 0:
			if !tx.Busy() || rng.Intn(4) == 0 {
				tx.SendMsg(string(rune('a' + rng.Intn(2))))
			}
		case 1, 2:
			if len(data) < maxInTransit {
				if pkt, ok := tx.NextPkt(); ok {
					data = append(data, pkt)
				}
			}
		case 3, 4:
			if len(data) > 0 {
				var pkt ioa.Packet
				data, pkt = take(data)
				rx.DeliverPkt(pkt)
			}
		case 5:
			if len(acks) < maxInTransit {
				if pkt, ok := rx.NextPkt(); ok {
					acks = append(acks, pkt)
				}
			}
		case 6:
			if len(acks) > 0 {
				var pkt ioa.Packet
				acks, pkt = take(acks)
				tx.DeliverPkt(pkt)
			}
		case 7:
			if len(data) > 0 && rng.Intn(2) == 0 {
				data, _ = take(data)
			} else if len(acks) > 0 {
				acks, _ = take(acks)
			}
		case 8:
			rx.TakeDelivered()
		}
	}
}

// groupByControlKey buckets states by ControlKey, in first-visit order.
func groupByControlKey[E interface{ StateKey() string }](states []E) [][]E {
	idx := make(map[string]int)
	var groups [][]E
	for _, e := range states {
		ck := protocol.ControlKeyOf(e)
		i, ok := idx[ck]
		if !ok {
			i = len(groups)
			idx[ck] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], e)
	}
	return groups
}

// alphabet is every packet over the 2S-header alphabet: data headers
// carry each payload letter, ack headers none.
func alphabet(s int) []ioa.Packet {
	var out []ioa.Packet
	for h := 0; h < s; h++ {
		for _, pl := range []string{"a", "b"} {
			out = append(out, ioa.Packet{Header: "s" + strconv.Itoa(h), Payload: pl})
		}
		out = append(out, ioa.Packet{Header: "t" + strconv.Itoa(h)})
	}
	return out
}

// TestControlKeyBisimulation checks the quotient itself — the proof
// obligation protocol.ControlKeyer states — on every state a set of seeded
// lossy, reordering schedules reaches: two endpoint states with equal
// ControlKey show the same Busy, NextPkt and TakeDelivered output, and every
// input (each packet of the 2S-header alphabet, a submission, an output
// step) takes them to ControlKey-equal successors. Equality of outputs is
// transitive, so each state is compared against its group's first member.
// The S = 0 registry entry has no quotient; there the control key must be
// the state key.
func TestControlKeyBisimulation(t *testing.T) {
	reg := transport.Registry()
	for _, name := range transport.Names() {
		p := reg[name]
		hb, bounded := p.HeaderBound()
		s := hb / 2
		t.Run(name, func(t *testing.T) {
			reached := &reachedStates{seen: make(map[string]bool)}
			for seed := int64(1); seed <= 32; seed++ {
				reached.reach(p, seed, 2000)
			}
			if !bounded {
				// S = 0: no quotient, the control key is the state key.
				for _, e := range reached.ts {
					if protocol.ControlKeyOf(e) != e.StateKey() {
						t.Fatalf("transmitter ControlKey %q != StateKey %q", protocol.ControlKeyOf(e), e.StateKey())
					}
				}
				for _, e := range reached.rs {
					if protocol.ControlKeyOf(e) != e.StateKey() {
						t.Fatalf("receiver ControlKey %q != StateKey %q", protocol.ControlKeyOf(e), e.StateKey())
					}
				}
				return
			}
			pkts := alphabet(s)
			merged := 0

			type tStep struct {
				name string
				do   func(protocol.Transmitter)
			}
			tSteps := []tStep{
				{"SendMsg(a)", func(e protocol.Transmitter) { e.SendMsg("a") }},
				{"NextPkt", func(e protocol.Transmitter) { e.NextPkt() }},
			}
			for _, pkt := range pkts {
				tSteps = append(tSteps, tStep{"DeliverPkt(" + pkt.Header + ":" + pkt.Payload + ")",
					func(e protocol.Transmitter) { e.DeliverPkt(pkt) }})
			}
			for _, g := range groupByControlKey(reached.ts) {
				a := g[0]
				for _, b := range g[1:] {
					merged++
					if a.Busy() != b.Busy() {
						t.Fatalf("transmitter %s: Busy differs between\n %s\n %s", protocol.ControlKeyOf(a), a.StateKey(), b.StateKey())
					}
					pa, oka := a.Clone().NextPkt()
					pb, okb := b.Clone().NextPkt()
					if pa != pb || oka != okb {
						t.Fatalf("transmitter %s: NextPkt %v/%v vs %v/%v between\n %s\n %s",
							protocol.ControlKeyOf(a), pa, oka, pb, okb, a.StateKey(), b.StateKey())
					}
					for _, st := range tSteps {
						sa, sb := a.Clone(), b.Clone()
						st.do(sa)
						st.do(sb)
						if ka, kb := protocol.ControlKeyOf(sa), protocol.ControlKeyOf(sb); ka != kb {
							t.Fatalf("transmitter %s: %s leads to different control keys from\n %s\n %s\n:\n %s\n %s",
								protocol.ControlKeyOf(a), st.name, a.StateKey(), b.StateKey(), ka, kb)
						}
					}
				}
			}

			type rStep struct {
				name string
				do   func(protocol.Receiver)
			}
			rSteps := []rStep{
				{"NextPkt", func(e protocol.Receiver) { e.NextPkt() }},
				{"TakeDelivered", func(e protocol.Receiver) { e.TakeDelivered() }},
			}
			for _, pkt := range pkts {
				rSteps = append(rSteps, rStep{"DeliverPkt(" + pkt.Header + ":" + pkt.Payload + ")",
					func(e protocol.Receiver) { e.DeliverPkt(pkt) }})
			}
			for _, g := range groupByControlKey(reached.rs) {
				a := g[0]
				for _, b := range g[1:] {
					merged++
					pa, oka := a.Clone().NextPkt()
					pb, okb := b.Clone().NextPkt()
					if pa != pb || oka != okb {
						t.Fatalf("receiver %s: NextPkt %v/%v vs %v/%v between\n %s\n %s",
							protocol.ControlKeyOf(a), pa, oka, pb, okb, a.StateKey(), b.StateKey())
					}
					da, db := a.Clone().TakeDelivered(), b.Clone().TakeDelivered()
					if fmt.Sprintf("%q", da) != fmt.Sprintf("%q", db) {
						t.Fatalf("receiver %s: TakeDelivered %q vs %q between\n %s\n %s",
							protocol.ControlKeyOf(a), da, db, a.StateKey(), b.StateKey())
					}
					for _, st := range rSteps {
						sa, sb := a.Clone(), b.Clone()
						st.do(sa)
						st.do(sb)
						if ka, kb := protocol.ControlKeyOf(sa), protocol.ControlKeyOf(sb); ka != kb {
							t.Fatalf("receiver %s: %s leads to different control keys from\n %s\n %s\n:\n %s\n %s",
								protocol.ControlKeyOf(a), st.name, a.StateKey(), b.StateKey(), ka, kb)
						}
					}
				}
			}
			// Non-vacuity: the schedules wrapped the sequence space, so the
			// quotient merged states that differ in absolute numbering.
			if merged == 0 {
				t.Fatalf("no two reached states share a control key (%d transmitter, %d receiver states); the test is vacuous", len(reached.ts), len(reached.rs))
			}
			t.Logf("%d transmitter and %d receiver states, %d merged pairs checked", len(reached.ts), len(reached.rs), merged)
		})
	}
}
