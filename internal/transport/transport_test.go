package transport

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/ioa"
	"repro/internal/protocol"
	"repro/internal/sim"
)

func TestNameAndHeaderBound(t *testing.T) {
	p := New(8, 4)
	if p.Name() != "swindow-s8-w4" {
		t.Fatalf("Name = %q", p.Name())
	}
	k, bounded := p.HeaderBound()
	if k != 16 || !bounded {
		t.Fatalf("HeaderBound = %d,%t", k, bounded)
	}
	u := New(0, 4)
	if u.Name() != "swindow-unbounded-w4" {
		t.Fatalf("Name = %q", u.Name())
	}
	if _, bounded := u.HeaderBound(); bounded {
		t.Fatal("unbounded variant should report unbounded")
	}
	if New(0, 0).W != 1 {
		t.Fatal("W should clamp to 1")
	}
}

func runBatch(t *testing.T, p protocol.Protocol, payloads []string, data, ack channel.Policy) sim.Result {
	t.Helper()
	r := sim.NewRunner(sim.Config{
		Protocol:    p,
		DataPolicy:  data,
		AckPolicy:   ack,
		RecordTrace: true,
	})
	for _, pl := range payloads {
		r.SubmitMsg(pl)
	}
	if err := r.RunToIdle(); err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return r.Result()
}

func payloads(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("msg-%d", i)
	}
	return out
}

func TestDeliveryInOrderReliable(t *testing.T) {
	for _, p := range []protocol.Protocol{New(0, 1), New(0, 4), New(8, 2), New(16, 8)} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			want := payloads(10)
			res := runBatch(t, p, want, nil, nil)
			if len(res.Delivered) != 10 {
				t.Fatalf("delivered %v", res.Delivered)
			}
			for i := range want {
				if res.Delivered[i] != want[i] {
					t.Fatalf("delivered %v, want %v", res.Delivered, want)
				}
			}
			if err := ioa.CheckValid(res.Trace); err != nil {
				t.Fatalf("trace invalid: %v", err)
			}
		})
	}
}

func TestDeliveryUnderLoss(t *testing.T) {
	for _, p := range []protocol.Protocol{New(0, 4), New(32, 4)} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			res := runBatch(t, p, payloads(8),
				channel.DropEvery(3), channel.DropEvery(4))
			if len(res.Delivered) != 8 {
				t.Fatalf("delivered %d of 8", len(res.Delivered))
			}
			if err := ioa.CheckValid(res.Trace); err != nil {
				t.Fatalf("trace invalid: %v", err)
			}
		})
	}
}

func TestUnboundedSafeUnderProbabilisticDelay(t *testing.T) {
	// Delayed (stale) segments accumulate; the unbounded variant must
	// stay safe because every segment has a private sequence number.
	res := runBatch(t, New(0, 4), payloads(12),
		channel.Probabilistic(0.3, rand.New(rand.NewSource(5))),
		channel.Probabilistic(0.2, rand.New(rand.NewSource(6))))
	if len(res.Delivered) != 12 {
		t.Fatalf("delivered %d of 12", len(res.Delivered))
	}
	if err := ioa.CheckValid(res.Trace); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
}

func TestWindowPipelines(t *testing.T) {
	// With window W, up to W segments are admitted before any ack: the
	// first W data sends must have distinct headers.
	tx, _ := New(0, 4).New(nil, nil)
	for i := 0; i < 6; i++ {
		tx.SendMsg(fmt.Sprintf("m%d", i))
	}
	seen := make(map[string]bool)
	for i := 0; i < 4; i++ {
		p, ok := tx.NextPkt()
		if !ok {
			t.Fatal("expected enabled output")
		}
		seen[p.Header] = true
	}
	if len(seen) != 4 {
		t.Fatalf("expected 4 distinct in-flight headers, got %v", seen)
	}
}

func TestSenderSlidesOnCumulativePrefix(t *testing.T) {
	tx, _ := New(0, 2).New(nil, nil)
	tx.SendMsg("a")
	tx.SendMsg("b")
	tx.SendMsg("c") // queued; window is 2
	// Ack segment 1 first: window cannot slide yet (0 unacked).
	tx.DeliverPkt(ioa.Packet{Header: "t1"})
	if !strings.Contains(tx.StateKey(), "base=0") {
		t.Fatalf("window slid past an unacked segment: %s", tx.StateKey())
	}
	// Ack segment 0: slides past both, admits "c".
	tx.DeliverPkt(ioa.Packet{Header: "t0"})
	if !strings.Contains(tx.StateKey(), "base=2") {
		t.Fatalf("window did not slide: %s", tx.StateKey())
	}
	p, ok := tx.NextPkt()
	if !ok || p.Payload != "c" {
		t.Fatalf("expected c admitted, got %v,%t", p, ok)
	}
}

func TestReceiverBuffersOutOfOrder(t *testing.T) {
	_, rx := New(0, 3).New(nil, nil)
	rx.DeliverPkt(ioa.Packet{Header: "s2", Payload: "c"})
	rx.DeliverPkt(ioa.Packet{Header: "s1", Payload: "b"})
	if got := rx.TakeDelivered(); len(got) != 0 {
		t.Fatalf("premature delivery: %v", got)
	}
	rx.DeliverPkt(ioa.Packet{Header: "s0", Payload: "a"})
	got := rx.TakeDelivered()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("delivered %v", got)
	}
}

func TestReceiverIgnoresBeyondWindow(t *testing.T) {
	_, rx := New(0, 2).New(nil, nil)
	rx.DeliverPkt(ioa.Packet{Header: "s5", Payload: "x"}) // far future
	if got := rx.TakeDelivered(); len(got) != 0 {
		t.Fatalf("delivered %v", got)
	}
	if _, ok := rx.NextPkt(); ok {
		t.Fatal("future segment should not be acked")
	}
}

func TestReceiverReAcksStale(t *testing.T) {
	_, rx := New(0, 2).New(nil, nil)
	rx.DeliverPkt(ioa.Packet{Header: "s0", Payload: "a"})
	rx.TakeDelivered()
	drainAcks(rx)
	rx.DeliverPkt(ioa.Packet{Header: "s0", Payload: "a"}) // stale duplicate
	a, ok := rx.NextPkt()
	if !ok || a.Header != "t0" {
		t.Fatalf("stale segment should be re-acked: %v,%t", a, ok)
	}
	if got := rx.TakeDelivered(); len(got) != 0 {
		t.Fatalf("stale duplicate delivered: %v", got)
	}
}

func drainAcks(rx protocol.Receiver) {
	for {
		if _, ok := rx.NextPkt(); !ok {
			return
		}
	}
}

// TestBoundedSeqSpaceAliasing demonstrates the wrap attack by hand: with
// S=2, W=1, a stale copy of segment 0 aliases onto segment 2.
func TestBoundedSeqSpaceAliasing(t *testing.T) {
	_, rx := New(2, 1).New(nil, nil)
	rx.DeliverPkt(ioa.Packet{Header: "s0", Payload: "m0"})
	rx.DeliverPkt(ioa.Packet{Header: "s1", Payload: "m1"})
	rx.TakeDelivered()
	// Receiver now expects seq 2, whose header is s0 again. Replay m0.
	rx.DeliverPkt(ioa.Packet{Header: "s0", Payload: "m0"})
	got := rx.TakeDelivered()
	if len(got) != 1 || got[0] != "m0" {
		t.Fatalf("expected the alias bug to deliver the stale payload, got %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	tx, rx := New(4, 2).New(nil, nil)
	tx.SendMsg("a")
	tc := tx.Clone()
	tc.SendMsg("b")
	if tx.StateKey() == tc.StateKey() {
		t.Fatal("sender clone shares state")
	}
	rx.DeliverPkt(ioa.Packet{Header: "s0", Payload: "a"})
	rc := rx.Clone()
	rc.DeliverPkt(ioa.Packet{Header: "s1", Payload: "b"})
	if rx.StateKey() == rc.StateKey() {
		t.Fatal("receiver clone shares state")
	}
}

func TestGarbageIgnored(t *testing.T) {
	tx, rx := New(4, 2).New(nil, nil)
	tx.SendMsg("a")
	tx.DeliverPkt(ioa.Packet{Header: "zz"})
	tx.DeliverPkt(ioa.Packet{Header: "tXY"})
	if !tx.Busy() {
		t.Fatal("garbage ack accepted")
	}
	rx.DeliverPkt(ioa.Packet{Header: "??"})
	rx.DeliverPkt(ioa.Packet{Header: "sAB"})
	if got := rx.TakeDelivered(); len(got) != 0 {
		t.Fatalf("garbage delivered: %v", got)
	}
}

func TestHeadersGrowOnlyWhenUnbounded(t *testing.T) {
	resU := runBatch(t, New(0, 2), payloads(8), nil, nil)
	if resU.Metrics.HeadersUsed < 16 {
		t.Fatalf("unbounded variant headers = %d, want ≥ 16", resU.Metrics.HeadersUsed)
	}
	resB := runBatch(t, New(4, 2), payloads(8), nil, nil)
	if resB.Metrics.HeadersUsed > 8 {
		t.Fatalf("bounded variant headers = %d, want ≤ 8", resB.Metrics.HeadersUsed)
	}
}
