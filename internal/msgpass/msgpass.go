// Package msgpass implements the STAMP message-passing substrate:
// mailbox endpoints with the paper's intra-/inter-processor message
// delays (L_a, L_e) and bandwidth factors (g_mp_a, g_mp_e). Delivery is
// FIFO per sender-receiver pair and messages become receivable exactly
// at their arrival time in virtual time.
package msgpass

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Agent is the sending/receiving process as the network sees it (the
// STAMP core's execution context implements it).
type Agent interface {
	Proc() *sim.Proc
	Thread() machine.ThreadID
	Counters() *energy.Counters
	// ChargeCost charges virtual time with deterministic per-category
	// fractional carry, attributing materialized ticks to cat.
	ChargeCost(cat obs.Category, ticks float64)
	// Profile returns the process's virtual-time profile sink, or nil
	// when profiling is disabled (the nil profile is a no-op).
	Profile() *obs.ProcProfile
}

// FaultAction is a fault injector's decision about one message
// transfer.
type FaultAction uint8

const (
	// FaultNone delivers the message normally.
	FaultNone FaultAction = iota
	// FaultDrop loses the message in flight: the sender is charged
	// injection occupancy as usual, but nothing ever arrives.
	FaultDrop
	// FaultDup delivers the message twice (two identical copies, same
	// arrival time; FIFO order puts them adjacent in the inbox).
	FaultDup
	// FaultDelay delivers the message after extra in-flight latency.
	FaultDelay
)

// FaultInjector intercepts every message transfer on a Network.
// Implementations must be deterministic functions of virtual-time
// state — internal/fault provides a seeded one — and are consulted
// inside the simulation's single-goroutine discipline, so they need no
// locking.
type FaultInjector interface {
	// OnSend classifies the transfer of m from src to dst, returning
	// the action and, for FaultDelay, the extra latency in ticks.
	OnSend(src, dst *Endpoint, m *Message) (FaultAction, sim.Time)
}

// SetFaultInjector installs inj on the network; nil disables
// injection. With no injector the send path is exactly the fault-free
// one.
func (n *Network) SetFaultInjector(inj FaultInjector) { n.faults = inj }

// Message is a delivered payload plus provenance.
type Message struct {
	From    *Endpoint
	Payload any
	// Words is the message size for long-message (LogGP-style)
	// bandwidth charging; 0 or 1 means a minimal message.
	Words   int
	SentAt  sim.Time
	Arrived sim.Time

	// hb is the probe's happens-before token, stamped at send and
	// redeemed at receive (0 = no probe was attached at send time). It
	// rides inside the message so the edge survives delivery delays,
	// duplication and reordering across endpoints.
	hb uint64
}

// Probe observes message transfers for happens-before tracking. The
// race detector (internal/racedet) is the one implementation; it must
// be passive (no holds, no blocking).
type Probe interface {
	// MsgSend fires when p sends a message from src to dst, before
	// delivery is scheduled. The returned token (must be nonzero) is
	// carried by the message and passed to MsgRecv on receipt; a
	// dropped message's token is simply never redeemed, a duplicated
	// message's token is redeemed twice.
	MsgSend(src, dst *Endpoint, p *sim.Proc) uint64
	// MsgRecv fires when p receives a message carrying token at dst.
	MsgRecv(dst *Endpoint, p *sim.Proc, token uint64)
}

// SetProbe attaches a transfer probe to the network (nil detaches).
// Attach before the simulation runs.
func (n *Network) SetProbe(pr Probe) { n.probe = pr }

// DeliveryRecorder observes scheduled deliveries for checkpointing: a
// message is "in flight" from the instant delivery is scheduled until
// the delivery event fires. The checkpoint layer (internal/ckpt) is the
// one implementation; it must be passive. Depart returns a nonzero
// token; Land redeems it when the message arrives.
type DeliveryRecorder interface {
	Depart(dst *Endpoint, m *Message, arrive sim.Time) uint64
	Land(token uint64)
}

// SetDeliveryRecorder installs rec on the network; nil disables
// recording. With no recorder the delivery path is byte-identical to
// the unrecorded one.
func (n *Network) SetDeliveryRecorder(rec DeliveryRecorder) { n.recorder = rec }

// Network is the message-passing subsystem of one simulated machine.
type Network struct {
	m *machine.Machine

	endpoints []*Endpoint

	faults   FaultInjector
	probe    Probe
	recorder DeliveryRecorder

	delivered int64
	wireTicks sim.Time // summed in-flight latency of all messages
	occupancy float64  // summed sender/receiver bandwidth charges
	maxInbox  int      // deepest inbox observed at any delivery

	dropped    int64
	duplicated int64
	delayed    int64
	faultDelay sim.Time // summed extra latency of delayed messages

	// freeDeliveries recycles in-flight delivery records (see
	// deliverAfter): at steady state a send schedules its arrival
	// without allocating a closure or a boxed Message.
	freeDeliveries []*delivery
}

// New creates the network for machine m.
func New(m *machine.Machine) *Network { return &Network{m: m} }

// Machine returns the backing machine.
func (n *Network) Machine() *machine.Machine { return n.m }

// Delivered returns the total number of messages delivered so far.
func (n *Network) Delivered() int64 { return n.delivered }

// WireTicks returns the summed in-flight latency (L plus long-message
// serialization) of every message sent so far.
func (n *Network) WireTicks() sim.Time { return n.wireTicks }

// OccupancyTicks returns the summed bandwidth (g) occupancy charged to
// senders and receivers, in fractional ticks.
func (n *Network) OccupancyTicks() float64 { return n.occupancy }

// MaxInboxDepth returns the deepest mailbox backlog observed at any
// delivery instant — a router/endpoint congestion indicator.
func (n *Network) MaxInboxDepth() int { return n.maxInbox }

// Dropped returns the number of messages lost by fault injection.
func (n *Network) Dropped() int64 { return n.dropped }

// Duplicated returns the number of messages duplicated by fault
// injection (each adds one extra delivery).
func (n *Network) Duplicated() int64 { return n.duplicated }

// Delayed returns the number of messages given extra latency by fault
// injection.
func (n *Network) Delayed() int64 { return n.delayed }

// FaultDelayTicks returns the summed extra in-flight latency injected
// into delayed messages.
func (n *Network) FaultDelayTicks() sim.Time { return n.faultDelay }

// Endpoint is one process's mailbox. Create one per process with the
// hardware thread the process is bound to.
type Endpoint struct {
	net    *Network
	name   string
	idx    int // registration index within net
	thread machine.ThreadID
	inbox  []Message
	rq     sim.WaitQueue // blocked receivers
}

// NewEndpoint registers a mailbox owned by a process on hardware
// thread t.
func (n *Network) NewEndpoint(name string, t machine.ThreadID) *Endpoint {
	if int(t) < 0 || int(t) >= n.m.Cfg.NumThreads() {
		panic(fmt.Sprintf("msgpass: endpoint thread %d out of range", t))
	}
	ep := &Endpoint{net: n, name: name, idx: len(n.endpoints), thread: t}
	n.endpoints = append(n.endpoints, ep)
	return ep
}

// Rebind moves the endpoint to hardware thread t: transfers sent after
// the rebind pay the link costs of the new coordinates. Messages
// already in flight were costed at send time against the old
// coordinates, exactly as a wire transfer that departed before the move.
func (e *Endpoint) Rebind(t machine.ThreadID) {
	if int(t) < 0 || int(t) >= e.net.m.Cfg.NumThreads() {
		panic(fmt.Sprintf("msgpass: endpoint rebind thread %d out of range", t))
	}
	e.thread = t
}

// Index returns the endpoint's registration index — the stable
// coordinate checkpoints use in place of the pointer.
func (e *Endpoint) Index() int { return e.idx }

// NumEndpoints returns how many endpoints have been registered.
func (n *Network) NumEndpoints() int { return len(n.endpoints) }

// Endpoint returns the i'th registered endpoint.
func (n *Network) Endpoint(i int) *Endpoint { return n.endpoints[i] }

// Name returns the endpoint name.
func (e *Endpoint) Name() string { return e.name }

// Thread returns the owning hardware thread.
func (e *Endpoint) Thread() machine.ThreadID { return e.thread }

// Pending returns the number of messages already arrived and not yet
// received.
func (e *Endpoint) Pending() int { return len(e.inbox) }

// delay and bandwidth class for a transfer from thread a to thread b —
// the machine's hierarchical tier (same core, same chip, same cluster,
// cross-cluster; flat machines collapse to the original two tiers).
func (n *Network) linkCosts(a, b machine.ThreadID) (delay sim.Time, g float64, intra bool) {
	return n.m.Cfg.MsgLink(a, b)
}

// Send transmits payload from agent a to endpoint dst without blocking
// for delivery: the sender is charged the bandwidth (occupancy) cost and
// continues; the message arrives L ticks later. It returns the arrival
// time.
func (e *Endpoint) Send(a Agent, dst *Endpoint, payload any) sim.Time {
	return e.SendSized(a, dst, payload, 1)
}

// SendSized is Send for a long message of `words` payload words. Per
// the LogGP extension, injection occupies the sender for an extra
// (words−1)·G_word and the wire for the same, so the arrival time is
// L + (words−1)·G_word after the send instant.
func (e *Endpoint) SendSized(a Agent, dst *Endpoint, payload any, words int) sim.Time {
	if dst == nil {
		panic("msgpass: send to nil endpoint")
	}
	if words < 1 {
		words = 1
	}
	delay, g, intra := e.net.linkCosts(a.Thread(), dst.thread)
	if intra {
		a.Counters().SendsIntra++
	} else {
		a.Counters().SendsInter++
	}
	extra := float64(words-1) * e.net.m.Cfg.Costs.GMpWord
	// The message departs at the send instant; the bandwidth charge g
	// (plus the long-message serialization) is sender occupancy, paid
	// after injection (the model adds the L and g terms independently
	// in T_S-round).
	p := a.Proc()
	m := Message{From: e, Payload: payload, Words: words, SentAt: p.Now()}
	if pr := e.net.probe; pr != nil {
		m.hb = pr.MsgSend(e, dst, p)
	}
	wire := delay + sim.Time(extra)
	arrive := m.SentAt + wire

	n := e.net
	action, faultExtra := FaultNone, sim.Time(0)
	if n.faults != nil {
		// The injector gets the address of a copy, copied back after:
		// taking m's own address would move it to the heap on every
		// send, injector or not.
		fm := m
		action, faultExtra = n.faults.OnSend(e, dst, &fm)
		m = fm
	}
	switch action {
	case FaultDrop:
		// Lost in flight. The sender cannot tell: it pays occupancy and
		// the returned arrival time is when the message would have
		// arrived.
		n.dropped++
	case FaultDup:
		n.duplicated++
		n.deliverAfter(dst, m, wire)
		n.deliverAfter(dst, m, wire)
		n.wireTicks += 2 * wire
	case FaultDelay:
		if faultExtra < 0 {
			panic("msgpass: negative fault delay")
		}
		n.delayed++
		n.faultDelay += faultExtra
		arrive += faultExtra
		n.deliverAfter(dst, m, wire+faultExtra)
		n.wireTicks += wire + faultExtra
	default:
		n.deliverAfter(dst, m, wire)
		n.wireTicks += wire
	}
	n.occupancy += g + extra
	// Injection occupancy may be fractional; ChargeCost both advances
	// the clock and attributes exactly the ticks it materializes, so
	// sender occupancy shows up under msgwait instead of being measured
	// as an (empty) elapsed-time window.
	a.ChargeCost(obs.CatMsgWait, g+extra)
	return arrive
}

// SendSync transmits like Send but blocks the sender until the message
// has arrived at dst — the paper's synch_comm behaviour for message
// passing ("blocked processes in message passing").
func (e *Endpoint) SendSync(a Agent, dst *Endpoint, payload any) {
	arrive := e.Send(a, dst, payload)
	p := a.Proc()
	if wait := arrive - p.Now(); wait > 0 {
		p.Hold(wait)
		a.Profile().Charge(obs.CatMsgWait, wait)
	}
}

// delivery is one scheduled in-flight message. Records are pooled
// (Network.freeDeliveries) and their kernel callback (run) is bound
// once at creation, so a steady-state send schedules its arrival with
// no per-message allocation, where a fresh closure would cost one
// closure plus a boxed Message copy per send.
type delivery struct {
	n   *Network
	dst *Endpoint
	m   Message
	tok uint64
	run func() // d.deliver, bound once; reused across recycles
}

// deliver lands the message: it returns the record to the pool first
// (nothing below can schedule a new delivery synchronously), then
// appends to the inbox and wakes a blocked receiver.
func (d *delivery) deliver() {
	n, dst, m, tok := d.n, d.dst, d.m, d.tok
	d.dst, d.m, d.tok = nil, Message{}, 0
	n.freeDeliveries = append(n.freeDeliveries, d)

	k := n.m.K
	m.Arrived = k.Now()
	dst.inbox = append(dst.inbox, m)
	if len(dst.inbox) > n.maxInbox {
		n.maxInbox = len(dst.inbox)
	}
	n.delivered++
	if tok != 0 {
		n.recorder.Land(tok)
	}
	dst.rq.Signal(k)
}

// deliverAfter schedules the arrival of m at dst after delay.
func (n *Network) deliverAfter(dst *Endpoint, m Message, delay sim.Time) {
	k := n.m.K
	var tok uint64
	if n.recorder != nil {
		// A copy for the recorder, so m itself never has its address
		// taken and stays off the heap.
		rm := m
		tok = n.recorder.Depart(dst, &rm, k.Now()+delay)
	}
	var d *delivery
	if l := len(n.freeDeliveries); l > 0 {
		d = n.freeDeliveries[l-1]
		n.freeDeliveries[l-1] = nil
		n.freeDeliveries = n.freeDeliveries[:l-1]
	} else {
		d = &delivery{n: n}
		d.run = d.deliver
	}
	d.dst, d.m, d.tok = dst, m, tok
	k.Schedule(delay, d.run)
}

// InboxMessage is a Message with its sender pointer replaced by the
// sender's endpoint index — the serializable form checkpoints store for
// both parked inbox contents and in-flight deliveries. The
// happens-before probe token is intentionally not preserved: the race
// detector and checkpointing address different runs (detection is a
// property of the uninterrupted execution), so tokens do not survive a
// restore.
type InboxMessage struct {
	From    int
	Payload any
	Words   int
	SentAt  sim.Time
	Arrived sim.Time
}

// SnapshotInbox returns the arrived-but-unreceived messages of e in
// FIFO order, in serializable form.
func (e *Endpoint) SnapshotInbox() []InboxMessage {
	if len(e.inbox) == 0 {
		return nil
	}
	out := make([]InboxMessage, len(e.inbox))
	for i, m := range e.inbox {
		out[i] = InboxMessage{
			From: m.From.idx, Payload: m.Payload, Words: m.Words,
			SentAt: m.SentAt, Arrived: m.Arrived,
		}
	}
	return out
}

// RestoreInbox replaces e's inbox with msgs (FIFO order preserved).
// Sender indices must refer to endpoints already registered on e's
// network.
func (e *Endpoint) RestoreInbox(msgs []InboxMessage) {
	e.inbox = e.inbox[:0]
	for _, im := range msgs {
		if im.From < 0 || im.From >= len(e.net.endpoints) {
			panic(fmt.Sprintf("msgpass: RestoreInbox sender index %d out of range", im.From))
		}
		e.inbox = append(e.inbox, Message{
			From: e.net.endpoints[im.From], Payload: im.Payload, Words: im.Words,
			SentAt: im.SentAt, Arrived: im.Arrived,
		})
	}
}

// ScheduleDelivery re-injects a checkpointed in-flight message: arrival
// of im at dst at absolute virtual time arrive. It routes through the
// normal delivery path, so the arrival counts toward the delivery
// statistics (as the original arrival would have) and is re-recorded by
// any installed DeliveryRecorder (so a later checkpoint sees it in
// flight again). The wire/occupancy charges are NOT re-applied — they
// were paid at the original send instant and live in the restored
// counter state.
func (n *Network) ScheduleDelivery(dst *Endpoint, im InboxMessage, arrive sim.Time) {
	if im.From < 0 || im.From >= len(n.endpoints) {
		panic(fmt.Sprintf("msgpass: ScheduleDelivery sender index %d out of range", im.From))
	}
	delay := arrive - n.m.K.Now()
	if delay < 0 {
		panic("msgpass: ScheduleDelivery arrival in the past")
	}
	m := Message{From: n.endpoints[im.From], Payload: im.Payload, Words: im.Words, SentAt: im.SentAt}
	n.deliverAfter(dst, m, delay)
}

// NetState is the network's counter state in serializable form.
type NetState struct {
	Delivered  int64
	WireTicks  sim.Time
	Occupancy  float64
	MaxInbox   int
	Dropped    int64
	Duplicated int64
	Delayed    int64
	FaultDelay sim.Time
}

// State returns the network counters for checkpointing.
func (n *Network) State() NetState {
	return NetState{
		Delivered: n.delivered, WireTicks: n.wireTicks, Occupancy: n.occupancy,
		MaxInbox: n.maxInbox, Dropped: n.dropped, Duplicated: n.duplicated,
		Delayed: n.delayed, FaultDelay: n.faultDelay,
	}
}

// RestoreState overwrites the network counters from a checkpoint.
func (n *Network) RestoreState(s NetState) {
	n.delivered, n.wireTicks, n.occupancy = s.Delivered, s.WireTicks, s.Occupancy
	n.maxInbox, n.dropped, n.duplicated = s.MaxInbox, s.Dropped, s.Duplicated
	n.delayed, n.faultDelay = s.Delayed, s.FaultDelay
}

// Recv blocks agent a until a message is available in its endpoint e,
// then removes and returns the oldest one, charging receive cost.
func (e *Endpoint) Recv(a Agent) Message {
	p := a.Proc()
	t0 := p.Now()
	for len(e.inbox) == 0 {
		before := p.Now()
		e.rq.Wait(p)
		a.Counters().QueueWait += p.Now() - before
	}
	return e.take(a, p, t0)
}

// RecvTimeout is Recv with a deadline: it blocks until a message is
// available or d ticks elapse, whichever comes first, and reports
// which. The timed-out wait is counted in the QueueWait counter but
// NOT charged to the profile — the caller knows why it was waiting and
// charges the category itself (internal/fault's reliable layer charges
// CatFault, keeping recovery overhead separate from productive message
// waits). Same-tick arrival-versus-expiry races resolve
// deterministically by kernel event order.
func (e *Endpoint) RecvTimeout(a Agent, d sim.Time) (Message, bool) {
	if d < 0 {
		panic("msgpass: negative receive timeout")
	}
	p := a.Proc()
	t0 := p.Now()
	deadline := t0 + d
	for len(e.inbox) == 0 {
		remain := deadline - p.Now()
		if remain <= 0 {
			return Message{}, false
		}
		before := p.Now()
		signaled := e.rq.WaitTimeout(p, remain)
		a.Counters().QueueWait += p.Now() - before
		if !signaled && len(e.inbox) == 0 {
			return Message{}, false
		}
	}
	return e.take(a, p, t0), true
}

// take dequeues the oldest arrived message and charges receive cost:
// the blocked window since t0 is msgwait, and the drain occupancy g
// (possibly fractional) goes through ChargeCost so it is attributed
// exactly, with per-category carry.
func (e *Endpoint) take(a Agent, p *sim.Proc, t0 sim.Time) Message {
	m := e.inbox[0]
	copy(e.inbox, e.inbox[1:])
	e.inbox[len(e.inbox)-1] = Message{}
	e.inbox = e.inbox[:len(e.inbox)-1]

	_, g, intra := e.net.linkCosts(m.From.thread, e.thread)
	if intra {
		a.Counters().RecvsIntra++
	} else {
		a.Counters().RecvsInter++
	}
	extra := 0.0
	if m.Words > 1 {
		extra = float64(m.Words-1) * e.net.m.Cfg.Costs.GMpWord
	}
	e.net.occupancy += g + extra
	a.Profile().Charge(obs.CatMsgWait, p.Now()-t0)
	a.ChargeCost(obs.CatMsgWait, g+extra)
	if pr := e.net.probe; pr != nil && m.hb != 0 {
		pr.MsgRecv(e, p, m.hb)
	}
	return m
}

// TryRecv returns the oldest arrived message without blocking; ok is
// false if none has arrived.
func (e *Endpoint) TryRecv(a Agent) (Message, bool) {
	if len(e.inbox) == 0 {
		return Message{}, false
	}
	return e.Recv(a), true
}

// RecvN receives exactly n messages, blocking as needed.
func (e *Endpoint) RecvN(a Agent, n int) []Message {
	out := make([]Message, 0, n)
	for len(out) < n {
		out = append(out, e.Recv(a))
	}
	return out
}

// Broadcast sends payload from agent a (owner of e) to every endpoint
// in dsts, skipping e itself.
func (e *Endpoint) Broadcast(a Agent, dsts []*Endpoint, payload any) {
	for _, d := range dsts {
		if d == e {
			continue
		}
		e.Send(a, d, payload)
	}
}
