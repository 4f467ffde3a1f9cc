package fault

import (
	"fmt"

	"repro/internal/msgpass"
	"repro/internal/obs"
	"repro/internal/sim"
)

// frame is the wire format of the reliable layer: a per-destination
// sequence number plus either a payload (data frame) or an ack.
type frame struct {
	seq     int64
	ack     bool
	payload any
}

// ReliableStats counts the protocol's work.
type ReliableStats struct {
	Sent        int64 // data frames transmitted, retransmissions included
	Retransmits int64 // data frames beyond the first per send
	Timeouts    int64 // receive windows that expired
	AcksSent    int64 // ack frames transmitted
	AcksStale   int64 // acks received for other/old sequence numbers
	DupsDropped int64 // duplicate data frames discarded after re-ack
	Delivered   int64 // distinct payloads accepted in order
}

// Reliable is a stop-and-wait reliable-delivery layer over a lossy
// msgpass endpoint: Send retransmits with doubling backoff (the STM
// layer's backoff shape) until acked, receivers ack every copy and
// deduplicate by per-source sequence number, and payloads are handed
// up in order per source. One Reliable wraps one endpoint and must
// only be used by the process owning it.
//
// While awaiting its own acks a sender keeps servicing incoming data
// frames (acking and queueing them), so two processes sending to each
// other concurrently always make progress. Virtual time lost to
// expired receive windows is charged to obs.CatFault.
type Reliable struct {
	a  msgpass.Agent
	ep *msgpass.Endpoint

	// Timeout is the base ack-wait window; attempt n waits
	// Timeout·2^(n-1), capped at 8·Timeout.
	Timeout sim.Time
	// MaxTries bounds transmissions per Send and empty waits per
	// RecvFrom before giving up with an error.
	MaxTries int

	sendSeq map[*msgpass.Endpoint]int64
	recvSeq map[*msgpass.Endpoint]int64
	pending map[*msgpass.Endpoint][]any
	stats   ReliableStats
}

// NewReliable wraps ep (owned by agent a) in a reliable layer.
func NewReliable(a msgpass.Agent, ep *msgpass.Endpoint, timeout sim.Time, maxTries int) *Reliable {
	if timeout <= 0 {
		panic("fault: reliable timeout must be positive")
	}
	if maxTries < 1 {
		panic("fault: reliable MaxTries must be >= 1")
	}
	return &Reliable{
		a:        a,
		ep:       ep,
		Timeout:  timeout,
		MaxTries: maxTries,
		sendSeq:  map[*msgpass.Endpoint]int64{},
		recvSeq:  map[*msgpass.Endpoint]int64{},
		pending:  map[*msgpass.Endpoint][]any{},
	}
}

// Stats returns the protocol counters so far.
func (r *Reliable) Stats() ReliableStats { return r.stats }

// backoff returns the ack-wait window of the given 1-based attempt.
func (r *Reliable) backoff(attempt int) sim.Time {
	w, capv := r.Timeout, 8*r.Timeout
	for i := 1; i < attempt && w < capv; i++ {
		w *= 2
	}
	if w > capv {
		w = capv
	}
	return w
}

// Send transmits payload to dst, retransmitting with backoff until dst
// acks or MaxTries transmissions have gone unanswered.
func (r *Reliable) Send(dst *msgpass.Endpoint, payload any) error {
	seq := r.sendSeq[dst] + 1
	r.sendSeq[dst] = seq
	for attempt := 1; attempt <= r.MaxTries; attempt++ {
		r.ep.Send(r.a, dst, frame{seq: seq, payload: payload})
		r.stats.Sent++
		if attempt > 1 {
			r.stats.Retransmits++
		}
		if r.awaitAck(dst, seq, r.backoff(attempt)) {
			return nil
		}
		r.stats.Timeouts++
	}
	return fmt.Errorf("fault: no ack from %s for seq %d after %d transmissions",
		dst.Name(), seq, r.MaxTries)
}

// awaitAck waits up to patience for dst's ack of seq, servicing (and
// acking) any data frames that arrive meanwhile. A window that ends in
// expiry is charged to CatFault; windows ending in a received frame
// were charged to msgwait by RecvTimeout as usual.
func (r *Reliable) awaitAck(dst *msgpass.Endpoint, seq int64, patience sim.Time) bool {
	p := r.a.Proc()
	deadline := p.Now() + patience
	for {
		remain := deadline - p.Now()
		if remain <= 0 {
			return false
		}
		before := p.Now()
		m, ok := r.ep.RecvTimeout(r.a, remain)
		if !ok {
			r.a.Profile().Charge(obs.CatFault, p.Now()-before)
			return false
		}
		f := m.Payload.(frame)
		if f.ack {
			if m.From == dst && f.seq == seq {
				return true
			}
			r.stats.AcksStale++ // an earlier window's straggler
			continue
		}
		r.handleData(m.From, f)
	}
}

// handleData acks a data frame and queues its payload if new. Every
// copy is re-acked — the previous ack may itself have been lost — but
// only the next-in-sequence payload is delivered; anything else is a
// duplicate of an already-queued frame and is dropped.
func (r *Reliable) handleData(src *msgpass.Endpoint, f frame) {
	r.ep.Send(r.a, src, frame{seq: f.seq, ack: true})
	r.stats.AcksSent++
	if f.seq == r.recvSeq[src]+1 {
		r.recvSeq[src] = f.seq
		r.pending[src] = append(r.pending[src], f.payload)
		r.stats.Delivered++
	} else {
		r.stats.DupsDropped++
	}
}

// Drain services incoming frames for up to d ticks without delivering
// anything new to the caller: data frames are acked (and queued if
// new), stray acks discarded. This is the stop-and-wait termination
// linger: a peer whose last ack was lost keeps retransmitting, and
// only this endpoint can satisfy it — exiting immediately after the
// final RecvFrom would strand that peer until its MaxTries run out.
// Call it once a session's receives are done, with d at least the
// peer's worst-case remaining backoff schedule (MaxBackoffTicks). The
// idle tail of the window is charged to CatFault: it is pure
// fault-recovery overhead.
//
// Messages still in flight when the window closes are NOT serviced:
// Drain returns at the deadline, and any frame arriving after it sits
// in the endpoint's mailbox unacked and undelivered. The consequences
// are asymmetric. For the sender of such a data frame, the stop-and-wait
// contract still holds: it keeps retransmitting into the silent mailbox
// until its MaxTries are spent and its Send returns the no-ack error —
// Drain bounds how long this endpoint lingers, not how long a
// late-arriving peer retries. For this endpoint, nothing is lost that
// was ever promised: payloads already accepted by handleData (during
// Drain or earlier) remain queued and deliverable by a later RecvFrom;
// only frames that arrived after the close are ignored. A d of at
// least the peers' MaxBackoffTicks makes the late-arrival case
// impossible for any Send started before the drain began, which is
// exactly why that is the recommended window.
func (r *Reliable) Drain(d sim.Time) {
	p := r.a.Proc()
	deadline := p.Now() + d
	for {
		remain := deadline - p.Now()
		if remain <= 0 {
			return
		}
		before := p.Now()
		m, ok := r.ep.RecvTimeout(r.a, remain)
		if !ok {
			r.a.Profile().Charge(obs.CatFault, p.Now()-before)
			return
		}
		f := m.Payload.(frame)
		if f.ack {
			r.stats.AcksStale++
			continue
		}
		r.handleData(m.From, f)
	}
}

// MaxBackoffTicks returns the sum of every ack-wait window a single
// Send can spend — the worst-case time a peer may keep retransmitting
// after this side last heard from it, and therefore the Drain window
// that guarantees no peer is stranded.
func (r *Reliable) MaxBackoffTicks() sim.Time {
	var sum sim.Time
	for attempt := 1; attempt <= r.MaxTries; attempt++ {
		sum += r.backoff(attempt)
	}
	return sum
}

// RecvFrom returns the next in-order payload from src, waiting (with
// backoff windows, servicing frames from any source) until it is
// available or MaxTries consecutive windows expire empty.
func (r *Reliable) RecvFrom(src *msgpass.Endpoint) (any, error) {
	p := r.a.Proc()
	for attempt := 1; ; {
		if q := r.pending[src]; len(q) > 0 {
			r.pending[src] = q[1:]
			return q[0], nil
		}
		if attempt > r.MaxTries {
			return nil, fmt.Errorf("fault: nothing deliverable from %s after %d waits",
				src.Name(), r.MaxTries)
		}
		before := p.Now()
		m, ok := r.ep.RecvTimeout(r.a, r.backoff(attempt))
		if !ok {
			r.a.Profile().Charge(obs.CatFault, p.Now()-before)
			r.stats.Timeouts++
			attempt++
			continue
		}
		f := m.Payload.(frame)
		if f.ack {
			r.stats.AcksStale++ // ack for a send already given up on
			continue
		}
		r.handleData(m.From, f)
	}
}
