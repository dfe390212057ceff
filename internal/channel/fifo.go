package channel

import (
	"fmt"

	"repro/internal/ioa"
)

// FIFO is a first-in-first-out physical channel, provided for contrast with
// the paper's non-FIFO model: protocols such as the alternating bit
// protocol [BSW69] are correct over lossy FIFO channels but break over
// non-FIFO channels. Deliveries occur strictly in send order; copies may be
// dropped but never reordered.
type FIFO struct {
	dir     ioa.Dir
	queue   []ioa.Packet
	sent    int
	recvd   int
	dropped int
}

// NewFIFO returns an empty FIFO channel for the given direction.
func NewFIFO(dir ioa.Dir) *FIFO {
	return &FIFO{dir: dir}
}

// Dir reports the channel's direction.
func (c *FIFO) Dir() ioa.Dir { return c.dir }

// Send enqueues a copy of p.
func (c *FIFO) Send(p ioa.Packet) {
	c.queue = append(c.queue, p)
	c.sent++
}

// DeliverHead dequeues and returns the oldest in-transit packet.
func (c *FIFO) DeliverHead() (ioa.Packet, error) {
	if len(c.queue) == 0 {
		return ioa.Packet{}, fmt.Errorf("channel %s: deliver on empty FIFO channel", c.dir)
	}
	p := c.queue[0]
	c.queue = c.queue[1:]
	c.recvd++
	return p, nil
}

// DropHead discards the oldest in-transit packet.
func (c *FIFO) DropHead() error {
	if len(c.queue) == 0 {
		return fmt.Errorf("channel %s: drop on empty FIFO channel", c.dir)
	}
	c.queue = c.queue[1:]
	c.dropped++
	return nil
}

// Deliver removes the head copy if it is p. A FIFO channel delivers in send
// order only, so any other packet is refused, mirroring NonFIFO.Deliver's
// refusal of a packet with no copy in transit.
func (c *FIFO) Deliver(p ioa.Packet) error {
	if h, ok := c.Head(); !ok || h != p {
		return fmt.Errorf("channel %s: deliver %s: not the head of the FIFO queue", c.dir, p)
	}
	_, err := c.DeliverHead()
	return err
}

// Drop discards the head copy if it is p; like Deliver, it refuses any
// other packet.
func (c *FIFO) Drop(p ioa.Packet) error {
	if h, ok := c.Head(); !ok || h != p {
		return fmt.Errorf("channel %s: drop %s: not the head of the FIFO queue", c.dir, p)
	}
	return c.DropHead()
}

// Deliverable reports how many distinct packets the next delivery or drop
// may take: the head alone, or none on an empty queue. DeliverableAt(0) is
// the head.
func (c *FIFO) Deliverable() int { return min(len(c.queue), 1) }

// DeliverableAt returns the i-th deliverable packet; i must be below
// Deliverable.
func (c *FIFO) DeliverableAt(i int) ioa.Packet { return c.queue[i] }

// InTransit reports the number of queued packets.
func (c *FIFO) InTransit() int { return len(c.queue) }

// Head returns the oldest in-transit packet without removing it.
func (c *FIFO) Head() (ioa.Packet, bool) {
	if len(c.queue) == 0 {
		return ioa.Packet{}, false
	}
	return c.queue[0], true
}

// CountHeader reports the number of queued copies with the given header.
func (c *FIFO) CountHeader(h string) int {
	n := 0
	for _, p := range c.queue {
		if p.Header == h {
			n++
		}
	}
	return n
}

// Key returns a canonical encoding of the queue contents (order matters).
func (c *FIFO) Key() string {
	s := "["
	for i, p := range c.queue {
		if i > 0 {
			s += " "
		}
		s += p.String()
	}
	return s + "]"
}

// AppendKey appends the canonical encoding (identical to Key) to dst.
func (c *FIFO) AppendKey(dst []byte) []byte {
	dst = append(dst, '[')
	for i, p := range c.queue {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = AppendPacket(dst, p)
	}
	return append(dst, ']')
}

// Sent reports the total send count.
func (c *FIFO) Sent() int { return c.sent }

// Received reports the total delivery count.
func (c *FIFO) Received() int { return c.recvd }

// Dropped reports the number of discarded copies.
func (c *FIFO) Dropped() int { return c.dropped }

// Clone returns an independent copy of the channel state.
func (c *FIFO) Clone() *FIFO {
	q := make([]ioa.Packet, len(c.queue))
	copy(q, c.queue)
	return &FIFO{dir: c.dir, queue: q, sent: c.sent, recvd: c.recvd, dropped: c.dropped}
}

// CloneInto overwrites dst with a deep copy of c, reusing dst's queue
// backing array.
func (c *FIFO) CloneInto(dst *FIFO) {
	dst.dir = c.dir
	dst.queue = append(dst.queue[:0], c.queue...)
	dst.sent = c.sent
	dst.recvd = c.recvd
	dst.dropped = c.dropped
}

// FIFOGenie adapts a FIFO channel to the Genie interface, as ChannelGenie
// does a NonFIFO one.
type FIFOGenie struct {
	Ch *FIFO
}

// Stale implements Genie.
func (g FIFOGenie) Stale(header string) int { return g.Ch.CountHeader(header) }
