package core

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/machine"
	"repro/internal/msgpass"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stm"
)

// Ctx is the execution context of one STAMP process: it binds the
// simulated process to a hardware thread, carries the operation
// counters, and provides the structured S-unit/S-round API. Ctx
// implements the Agent interface of the memory, msgpass and stm
// substrates, so it is passed directly to their operations.
type Ctx struct {
	sys    *System
	g      *Group
	idx    int
	p      *sim.Proc
	thread machine.ThreadID
	c      energy.Counters
	frac   float64
	// fracCat is the per-category fractional-tick carry behind
	// ChargeCost. Keeping one carry per profile category means the
	// fractional residue of, say, a bandwidth charge can never
	// materialize inside — and be misattributed to — a later charge of
	// an unrelated category.
	fracCat [obs.NumCategories]float64
	ep      *msgpass.Endpoint

	unit    int
	round   int
	inRound bool
	inUnit  bool

	// pend is compute time charged by FpOps/IntOps/LocalOps but not yet
	// materialized as a kernel Hold. Batching is only ever started or
	// extended when sim.Proc.CanCoalesce says no other event is
	// scheduled inside the pending window — no simulation state can
	// change while pend > 0, so deferring is invisible — and every
	// observation point (Now, Proc, HoldCost, and through them all
	// memory/msgpass/stm operations) flushes first.
	pend sim.Time

	roundStart sim.Time
	roundBase  energy.Counters
	unitStart  sim.Time
	unitBase   energy.Counters

	rounds []RoundRec
	units  []UnitRec

	start, end sim.Time

	// restoreSnap, when non-nil, is a checkpointed member state to apply
	// at process activation, before the body runs (set via
	// Group.RestoreMember, consumed once).
	restoreSnap *CtxSnapshot

	// prof is the process's virtual-time profile (nil when profiling is
	// off; the nil profile is a no-op, keeping charged ops alloc-free).
	prof *obs.ProcProfile
	// Open causal spans, innermost last: proc ⊃ unit ⊃ round.
	procSpan, unitSpan, roundSpan obs.SpanID
}

// RoundRec is the measured cost of one S-round of one process:
// its T_S-round and the operation deltas that determine E_S-round.
type RoundRec struct {
	Unit  int // S-unit index the round belongs to
	Round int // round index within the process
	Start sim.Time
	End   sim.Time
	Ops   energy.Counters
}

// T returns the round's measured execution time.
func (r RoundRec) T() sim.Time { return r.End - r.Start }

// UnitRec is the measured cost of one S-unit of one process.
type UnitRec struct {
	Index  int
	Start  sim.Time
	End    sim.Time
	Rounds int
	Ops    energy.Counters
}

// T returns the unit's measured execution time.
func (u UnitRec) T() sim.Time { return u.End - u.Start }

// --- identity -------------------------------------------------------

// Index returns the process's rank within its group, in [0, GroupSize).
func (c *Ctx) Index() int { return c.idx }

// GroupSize returns the number of processes in the group.
func (c *Ctx) GroupSize() int { return c.g.n }

// Group returns the owning group.
func (c *Ctx) Group() *Group { return c.g }

// System returns the owning system.
func (c *Ctx) System() *System { return c.sys }

// Proc returns the simulated process (Agent interface). Substrates take
// it to observe or advance the clock, so pending batched compute time is
// materialized first.
func (c *Ctx) Proc() *sim.Proc {
	c.flush()
	return c.p
}

// Thread returns the bound hardware thread (Agent interface).
func (c *Ctx) Thread() machine.ThreadID { return c.thread }

// Counters returns the process's counters (Agent interface).
func (c *Ctx) Counters() *energy.Counters { return &c.c }

// Profile returns the process's virtual-time profile sink, nil when
// profiling is disabled (Agent interface).
func (c *Ctx) Profile() *obs.ProcProfile { return c.prof }

// tracerSpans returns the span tracer (nil when absent).
func (c *Ctx) tracerSpans() *obs.Tracer { return c.sys.Obs.Tracer() }

// spanParent returns the innermost open structural span.
func (c *Ctx) spanParent() obs.SpanID {
	if c.roundSpan != 0 {
		return c.roundSpan
	}
	if c.unitSpan != 0 {
		return c.unitSpan
	}
	return c.procSpan
}

// Endpoint returns the process's message-passing mailbox.
func (c *Ctx) Endpoint() *msgpass.Endpoint { return c.ep }

// Coordinates reports the process's position in the S-unit/S-round
// structure: the current unit and round indices and whether a unit or
// round is open. Tooling (the race detector's reports) reads this to
// locate an event in model terms; the indices count completed phases,
// so an open round's index is the one it will be recorded under.
func (c *Ctx) Coordinates() (unit, round int, inUnit, inRound bool) {
	return c.unit, c.round, c.inUnit, c.inRound
}

// CurrentSpan returns the innermost open structural span (round ⊃ unit
// ⊃ proc), or 0 when span tracing is disabled.
func (c *Ctx) CurrentSpan() obs.SpanID { return c.spanParent() }

// Now returns the current virtual time, materializing any pending
// batched compute time first.
func (c *Ctx) Now() sim.Time {
	c.flush()
	return c.p.Now()
}

// flush charges accumulated batched compute time as one kernel Hold.
// The batching invariant (pend only grows while CanCoalesce holds, and
// no other process can run in between) guarantees the Hold takes the
// coalescing fast path, so a flush never parks. A process that is
// unwinding — killed, or torn down after a kernel error — discards its
// pending ticks instead: its deferred cleanup must neither advance the
// clock nor re-enter Hold (which would panic again mid-unwind).
func (c *Ctx) flush() {
	if c.pend > 0 {
		if c.p.Unwinding() {
			c.pend = 0
			return
		}
		d := c.pend
		c.pend = 0
		c.p.Hold(d)
	}
}

// --- local computation ----------------------------------------------

// HoldCost charges fractional virtual time with deterministic carry
// (Agent interface).
func (c *Ctx) HoldCost(ticks float64) {
	if ticks < 0 {
		panic("core: negative cost")
	}
	c.flush()
	c.frac += ticks
	if c.frac >= 1 {
		n := sim.Time(c.frac)
		c.frac -= float64(n)
		c.p.Hold(n)
	}
}

// ChargeCost advances virtual time by ticks with deterministic
// per-category fractional carry and attributes the materialized whole
// ticks to cat in the virtual-time profile (Agent interface). This is
// the substrates' charging primitive: unlike HoldCost followed by a
// window measurement, the materialized ticks and the profile charge
// are the same quantity by construction, so fractional costs are
// attributed to the category that incurred them — never lost, never
// bled into a neighbouring measurement window.
func (c *Ctx) ChargeCost(cat obs.Category, ticks float64) {
	if ticks < 0 {
		panic("core: negative cost")
	}
	c.flush()
	f := c.fracCat[cat] + ticks
	if f >= 1 {
		n := sim.Time(f)
		f -= float64(n)
		c.p.Hold(n)
		c.prof.Charge(cat, n)
	}
	c.fracCat[cat] = f
}

// Kill terminates the member's simulated process (see sim.Proc.Kill),
// discarding any batched-but-unmaterialized compute time: a killed
// process charges nothing further. Safe from kernel callbacks — it
// never advances the clock.
func (c *Ctx) Kill() {
	c.pend = 0
	c.p.Kill()
}

// SimProc returns the member's simulated process without materializing
// batched compute time. Unlike Proc (the Agent-interface accessor,
// which flushes), SimProc is safe from kernel callbacks, where the
// member is not the running process; fault plans use it to inspect and
// kill processes bound to a failed core.
func (c *Ctx) SimProc() *sim.Proc { return c.p }

// FpOps performs n local floating-point operations: advances time by
// n·t_fp (scaled by the core's clock multiplier on heterogeneous
// machines) and counts c_fp.
func (c *Ctx) FpOps(n int64) {
	if n < 0 {
		panic("core: negative op count")
	}
	c.c.FpOps += n
	c.holdCompute(n, c.sys.M.Cfg.Costs.TFp)
}

// IntOps performs n local integer operations: advances time by n·t_int
// (core-clock scaled) and counts c_int.
func (c *Ctx) IntOps(n int64) {
	if n < 0 {
		panic("core: negative op count")
	}
	c.c.IntOps += n
	c.holdCompute(n, c.sys.M.Cfg.Costs.TInt)
}

// holdCompute charges n local ops of base latency t, honoring the
// core's frequency multiplier. The homogeneous fast path holds whole
// ticks exactly; heterogeneous cores accumulate fractional ticks.
//
// Consecutive charges batch into one deferred Hold (c.pend) whenever the
// kernel certifies the extended window is uncontended — the common case
// for compute-dense S-round phases, where it collapses a long run of
// FpOps/IntOps calls into a single clock advance at the next
// observation point.
func (c *Ctx) holdCompute(n int64, t sim.Time) {
	cfg := c.sys.M.Cfg
	core := cfg.CoreOf(c.thread)
	if mult := cfg.CoreMult(core); mult != 1 {
		c.ChargeCost(obs.CatCompute, cfg.ComputeTime(core, n, float64(t)))
		return
	}
	d := sim.Time(n) * t
	c.prof.Charge(obs.CatCompute, d)
	if c.p.CanCoalesce(c.pend + d) {
		c.pend += d
		return
	}
	c.pend += d
	d = c.pend
	c.pend = 0
	c.p.Hold(d)
}

// computeEnergyScale returns the per-op energy multiplier of this
// process's core.
func (c *Ctx) computeEnergyScale() float64 {
	return c.sys.M.Cfg.ComputeEnergyScale(c.sys.M.Cfg.CoreOf(c.thread))
}

// LocalOps performs a mixed batch of local computation.
func (c *Ctx) LocalOps(fp, integer int64) {
	c.FpOps(fp)
	c.IntOps(integer)
}

// --- S-unit / S-round structure --------------------------------------

// SUnit runs fn as one S-unit: a minimal sequential phase made of
// S-rounds plus local computation outside rounds. Units may not nest.
func (c *Ctx) SUnit(fn func()) {
	if c.inUnit {
		panic("core: S-units may not nest (an S-unit is a minimal sequential process)")
	}
	c.inUnit = true
	c.unitStart = c.Now()
	c.unitBase = c.c
	if tr := c.tracerSpans(); tr.Enabled() {
		c.unitSpan = tr.Begin(c.unitStart, c.p.Name(), "unit", fmt.Sprintf("unit %d", c.unit), c.procSpan)
	}
	roundsBefore := len(c.rounds)
	fn()
	rec := UnitRec{
		Index:  c.unit,
		Start:  c.unitStart,
		End:    c.Now(),
		Rounds: len(c.rounds) - roundsBefore,
	}
	rec.Ops = c.c
	rec.Ops.SubFrom(c.unitBase)
	c.units = append(c.units, rec)
	c.tracerSpans().End(c.unitSpan, rec.End)
	c.unitSpan = 0
	c.unit++
	c.inUnit = false
}

// SRound runs fn as one S-round: receive/read, local computation, then
// send/write, per the paper's round structure. Under synch_comm the
// group barriers at the end of the round (the Jacobi example's
// "implicit barrier synchronization"); the barrier wait is part of the
// round's measured time.
func (c *Ctx) SRound(fn func()) {
	if c.inRound {
		panic("core: S-rounds may not nest")
	}
	c.inRound = true
	c.roundStart = c.Now()
	c.roundBase = c.c
	if tr := c.tracerSpans(); tr.Enabled() {
		parent := c.unitSpan
		if parent == 0 {
			parent = c.procSpan
		}
		c.roundSpan = tr.Begin(c.roundStart, c.p.Name(), "round", fmt.Sprintf("round %d", c.round), parent)
	}
	fn()
	if c.g.attrs.Comm == SynchComm && c.g.n > 1 {
		c.barrierWait()
	}
	rec := RoundRec{
		Unit:  c.unit,
		Round: c.round,
		Start: c.roundStart,
		End:   c.Now(),
	}
	rec.Ops = c.c
	rec.Ops.SubFrom(c.roundBase)
	c.rounds = append(c.rounds, rec)
	c.tracerSpans().End(c.roundSpan, rec.End)
	c.roundSpan = 0
	c.round++
	c.inRound = false
}

// barrierWait blocks on the group barrier, attributing the wait to
// CatBarrier and recording it as a span/event when tracing. When the
// tracer is streaming, the last arriver additionally publishes the
// completed generation (EvBarrier) and the fleet-wide profiler deltas
// accumulated since the previous generation (EvProfile) — the live
// progress signal stampserve's event stream is built on.
func (c *Ctx) barrierWait() {
	before := c.Now()
	if c.g.bar.Await(c.p) {
		c.barrierTripped()
	}
	wait := c.Now() - before
	if wait <= 0 {
		return
	}
	c.prof.Charge(obs.CatBarrier, wait)
	if tr := c.tracerSpans(); tr.Enabled() {
		id := tr.Begin(before, c.p.Name(), "barrier", "barrier", c.spanParent())
		tr.End(id, before+wait)
	}
}

// barrierTripped publishes the completed barrier generation on a
// streaming tracer; only the tripping arrival calls it.
func (c *Ctx) barrierTripped() {
	tr := c.tracerSpans()
	if !tr.Streaming() {
		return
	}
	gen := c.g.bar.Generation()
	now := c.p.Now()
	tr.Emit(obs.Event{At: now, Kind: obs.EvBarrier, Proc: c.p.Name(),
		Cat: "barrier", Name: "generation", Detail: c.g.name, Gen: gen})
	if pf := c.sys.Obs.Profiler(); pf.Enabled() {
		tot := pf.Totals()
		delta := tot
		for i := range delta {
			delta[i] -= c.g.profPub[i]
		}
		c.g.profPub = tot
		tr.Emit(obs.Event{At: now, Kind: obs.EvProfile, Proc: c.p.Name(),
			Cat: "profile", Name: "delta", Detail: profileDeltaDetail(delta), Gen: gen})
	}
}

// profileDeltaDetail renders a category-delta vector compactly and
// deterministically: "compute=12 memwait=3 ..." in category order.
func profileDeltaDetail(d obs.CatTimes) string {
	var b []byte
	for cat := obs.Category(0); cat < obs.NumCategories; cat++ {
		if cat > 0 {
			b = append(b, ' ')
		}
		b = append(b, cat.String()...)
		b = append(b, '=')
		b = fmt.Appendf(b, "%d", d[cat])
	}
	return string(b)
}

// Rounds returns the per-round measurements recorded so far.
func (c *Ctx) Rounds() []RoundRec { return c.rounds }

// Units returns the per-unit measurements recorded so far.
func (c *Ctx) Units() []UnitRec { return c.units }

// Barrier blocks until every group member reaches it (explicit
// synchronization for async_comm algorithms that need one).
func (c *Ctx) Barrier() {
	if c.g.n > 1 {
		c.barrierWait()
	}
}

// --- communication helpers -------------------------------------------

// Peer returns group member j's mailbox.
func (c *Ctx) Peer(j int) *msgpass.Endpoint {
	if j < 0 || j >= c.g.n {
		panic(fmt.Sprintf("core: peer index %d out of range [0,%d)", j, c.g.n))
	}
	return c.g.ctxs[j].ep
}

// SendTo sends payload to group member j. Under synch_comm the send
// blocks until delivery; under async_comm it is fire-and-forget.
func (c *Ctx) SendTo(j int, payload any) {
	dst := c.Peer(j)
	if tr := c.tracerSpans(); tr.Enabled() {
		tr.Instant(c.Now(), c.p.Name(), "msg", "send", "to "+dst.Name(), c.spanParent())
	}
	if c.g.attrs.Comm == SynchComm {
		c.ep.SendSync(c, dst, payload)
	} else {
		c.ep.Send(c, dst, payload)
	}
}

// Recv blocks until a message addressed to this process arrives and
// returns it.
func (c *Ctx) Recv() msgpass.Message {
	var sp obs.SpanID
	tr := c.tracerSpans()
	if tr.Enabled() {
		sp = tr.Begin(c.Now(), c.p.Name(), "msg", "recv", c.spanParent())
	}
	m := c.ep.Recv(c)
	tr.End(sp, c.Now())
	return m
}

// RecvN receives exactly n messages.
func (c *Ctx) RecvN(n int) []msgpass.Message {
	var sp obs.SpanID
	tr := c.tracerSpans()
	if tr.Enabled() {
		sp = tr.Begin(c.Now(), c.p.Name(), "msg", "recv", c.spanParent())
	}
	ms := c.ep.RecvN(c, n)
	tr.End(sp, c.Now())
	return ms
}

// BroadcastAll sends payload to every other group member (asynchronous
// injection regardless of the comm attribute; synch_comm algorithms
// follow a broadcast with a barrier, as in the Jacobi example).
func (c *Ctx) BroadcastAll(payload any) {
	if tr := c.tracerSpans(); tr.Enabled() {
		tr.Instant(c.Now(), c.p.Name(), "msg", "broadcast", fmt.Sprintf("to %d peers", c.g.n-1), c.spanParent())
	}
	for j := 0; j < c.g.n; j++ {
		if j == c.idx {
			continue
		}
		c.ep.Send(c, c.g.ctxs[j].ep, payload)
	}
}

// --- transactional execution -----------------------------------------

// Atomically runs body as a transaction on the system's STM (the
// trans_exec attribute's realization). A body that calls tx.Retry()
// blocks this process until another transaction commits, then
// re-executes.
func (c *Ctx) Atomically(body func(tx *stm.Tx) error) (stm.Outcome, error) {
	sp := c.beginTxSpan()
	out, err := c.sys.TM.Atomically(c, body)
	c.endTxSpan(sp, out)
	return out, err
}

// AtomicallyOrElse composes two alternatives: if first retries, second
// runs; if both retry, the process blocks until a commit.
func (c *Ctx) AtomicallyOrElse(first, second func(tx *stm.Tx) error) (stm.Outcome, error) {
	sp := c.beginTxSpan()
	out, err := c.sys.TM.AtomicallyOrElse(c, first, second)
	c.endTxSpan(sp, out)
	return out, err
}

// beginTxSpan opens a "tx" span when span tracing is on.
func (c *Ctx) beginTxSpan() obs.SpanID {
	if tr := c.tracerSpans(); tr.Enabled() {
		return tr.Begin(c.Now(), c.p.Name(), "tx", "tx", c.spanParent())
	}
	return 0
}

// endTxSpan closes the "tx" span and records the outcome as a span
// instant.
func (c *Ctx) endTxSpan(sp obs.SpanID, out stm.Outcome) {
	tr := c.tracerSpans()
	if !tr.Enabled() {
		return
	}
	now := c.Now()
	tr.End(sp, now)
	name := "commit"
	if !out.Committed {
		name = "abort"
	}
	tr.Instant(now, c.p.Name(), "tx", name, fmt.Sprintf("attempts %d", out.Attempts), sp)
}

// Trace records a custom application event as a span instant when span
// tracing is enabled.
func (c *Ctx) Trace(detail string) {
	if tr := c.tracerSpans(); tr.Enabled() {
		tr.Instant(c.Now(), c.p.Name(), "app", "app", detail, c.spanParent())
	}
}
