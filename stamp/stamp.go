// Package stamp is the public API of the STAMP library: a universal
// performance and power complexity model for multithreaded algorithms
// and systems (Dubois, Lee, Lin — IPDPS 2007), together with an
// executable simulation of the CMP/CMT machines the model targets.
//
// The package re-exports the stable surface of the internal engine:
//
//   - machine configuration (chips × cores × hardware threads, the
//     paper's cost parameters ℓ, L, g, κ, w, and the P ∝ f³ DVFS law);
//   - STAMP process groups with the paper's attribute axes
//     (intra_proc/inter_proc, trans_exec/async_exec,
//     synch_comm/async_comm) and the S-unit/S-round structure;
//   - queued shared memory, message passing and software transactional
//     memory substrates;
//   - the closed-form complexity calculator of §3.1 and the §4 Jacobi
//     derivation chain;
//   - the power-aware allocator that places processes under
//     per-processor power envelopes.
//
// Quick start:
//
//	sys := stamp.NewSystem(stamp.Niagara())
//	g := sys.NewGroup("hello", stamp.Attrs{Comm: stamp.AsyncComm}, 4,
//		func(ctx *stamp.Ctx) {
//			ctx.FpOps(100)
//		})
//	if err := sys.Run(); err != nil { ... }
//	rep := g.Report() // rep.T(), rep.E(), rep.Power(), rep.Energy().EDP()
package stamp

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/energy"
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/msgpass"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stm"
)

// Time is virtual simulation time in ticks (one tick = one local op).
type Time = sim.Time

// Machine configuration.
type (
	// Config describes a CMP/CMT machine: topology, cost table, DVFS.
	Config = machine.Config
	// CostTable carries the paper's §3.1 machine parameters.
	CostTable = machine.CostTable
	// ThreadID identifies one hardware thread slot.
	ThreadID = machine.ThreadID
)

// Niagara returns the Sun Niagara configuration of the paper's
// Figure 1: 8 cores × 4 hardware threads on one chip.
func Niagara() Config { return machine.Niagara() }

// Generic returns a 4-chip × 4-core × 2-thread CMP system.
func Generic() Config { return machine.Generic() }

// SingleCore returns a 1×1×1 machine for sequential baselines.
func SingleCore() Config { return machine.SingleCore() }

// BigLittle returns a heterogeneous single-chip machine: nBig cores at
// bigMult times the nominal clock, the rest at littleMult.
func BigLittle(nBig int, bigMult, littleMult float64) Config {
	return machine.BigLittle(nBig, bigMult, littleMult)
}

// DefaultCosts returns the cost table used by the presets.
func DefaultCosts() CostTable { return machine.DefaultCosts() }

// The STAMP model: systems, groups, processes, attributes.
type (
	// System bundles a simulated machine with its substrates.
	System = core.System
	// Group is a set of STAMP processes spawned together.
	Group = core.Group
	// GroupReport aggregates a finished group (T = max, E = sum).
	GroupReport = core.GroupReport
	// Ctx is the execution context of one STAMP process.
	Ctx = core.Ctx
	// Attrs is a process group's STAMP attribute set.
	Attrs = core.Attrs
	// Dist is the distribution attribute (IntraProc / InterProc).
	Dist = core.Dist
	// Exec is the execution attribute (TransExec / AsyncExec).
	Exec = core.Exec
	// Comm is the communication attribute (SynchComm / AsyncComm).
	Comm = core.Comm
	// Placement maps group members to hardware threads.
	Placement = core.Placement
	// Option configures a System.
	Option = core.Option
	// RoundRec is one process's measured S-round.
	RoundRec = core.RoundRec
	// UnitRec is one process's measured S-unit.
	UnitRec = core.UnitRec
)

// Attribute constants (the paper's keywords).
const (
	IntraProc = core.IntraProc // intra_proc
	InterProc = core.InterProc // inter_proc
	TransExec = core.TransExec // trans_exec
	AsyncExec = core.AsyncExec // async_exec
	SynchComm = core.SynchComm // synch_comm
	AsyncComm = core.AsyncComm // async_comm
)

// NewSystem builds a System on a fresh deterministic simulation kernel.
func NewSystem(cfg Config, opts ...Option) *System { return core.NewSystem(cfg, opts...) }

// WithContentionManager selects the STM contention manager.
func WithContentionManager(m ContentionManager) Option {
	return core.WithContentionManager(m)
}

// Tracer records execution as causal spans (process ⊃ S-unit ⊃
// S-round ⊃ barrier/msg/tx), renders per-process timelines and exports
// Chrome trace-event JSON.
type Tracer = obs.Tracer

// NewTracer returns an empty span tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// WithTracer attaches a span tracer to a System.
func WithTracer(t *Tracer) Option { return core.WithObs(&obs.Observer{Trace: t}) }

// WithPlacement overrides a group's default placement.
func WithPlacement(pl Placement) core.GroupOption { return core.WithPlacement(pl) }

// Table1 returns the four execution × communication combinations of
// the paper's Table 1.
func Table1(d Dist) []Attrs { return core.Table1(d) }

// Energy accounting and the §2.1 metrics.
type (
	// Counters are the per-process operation counts (c_fp, c_int, d_r,
	// d_w, m_s, m_r, …).
	Counters = energy.Counters
	// Report is a (delay, energy) measurement with D/PDP/EDP/ED²P.
	Report = energy.Report
	// Metric selects one of the four §2.1 objectives.
	Metric = energy.Metric
)

// Metric constants.
const (
	MetricD    = energy.MetricD
	MetricPDP  = energy.MetricPDP
	MetricEDP  = energy.MetricEDP
	MetricED2P = energy.MetricED2P
)

// Shared-memory substrate.
type (
	// Memory is the queued shared-memory subsystem.
	Memory = memory.Memory
	// Scope selects intra- vs inter-processor backing storage.
	Scope = memory.Scope
)

// Memory scopes.
const (
	Intra = memory.Intra
	Inter = memory.Inter
)

// NewRegion allocates a shared region of n words of type T on sys's
// memory. For Intra scope, homeCore selects the owning processor.
func NewRegion[T any](sys *System, name string, scope Scope, homeCore, n int) *memory.Region[T] {
	return memory.NewRegion[T](sys.Mem, name, scope, homeCore, n)
}

// Transactional memory substrate.
type (
	// STM is the transactional memory of a system (sys.TM).
	STM = stm.STM
	// Tx is one transaction attempt.
	Tx = stm.Tx
	// ContentionManager arbitrates transaction conflicts.
	ContentionManager = stm.ContentionManager
	// TxOutcome reports one Atomically call.
	TxOutcome = stm.Outcome
)

// Built-in contention managers.
type (
	// Passive always aborts the attacker.
	Passive = stm.Passive
	// Aggressive always aborts the victim (with exponential backoff).
	Aggressive = stm.Aggressive
	// Karma favors the transaction with more accumulated work.
	Karma = stm.Karma
	// Timestamp (Greedy) favors the older transaction.
	Timestamp = stm.Timestamp
)

// TVar is a transactional variable of type T.
type TVar[T any] = stm.TVar[T]

// NewTVar allocates a transactional variable on sys's STM.
func NewTVar[T any](sys *System, name string, init T) *TVar[T] {
	return stm.NewTVar(sys.TM, name, init)
}

// Message passing substrate.
type (
	// Mailbox is a process's message endpoint.
	Mailbox = msgpass.Endpoint
	// Message is a delivered payload with provenance.
	Message = msgpass.Message
)

// The analytical cost model (§3.1 + §4).
type (
	// CostMachine carries the model's machine constants.
	CostMachine = cost.Machine
	// CostRound carries per-S-round algorithm parameters.
	CostRound = cost.Round
	// CostUnit is an S-unit (rounds + outside-round computation).
	CostUnit = cost.Unit
	// JacobiModel is the paper's §4 Jacobi derivation chain.
	JacobiModel = cost.Jacobi
)

// CostFromTable lifts a simulator cost table into analytical constants.
func CostFromTable(t CostTable) CostMachine { return cost.FromCostTable(t) }

// CostFromCounters fills a CostRound from measured counters.
func CostFromCounters(c Counters) CostRound { return cost.FromCounters(c) }

// Power-aware allocation.
type (
	// Job describes a group of processes to place under an envelope.
	Job = sched.Job
	// Decision is the allocator's placement result.
	Decision = sched.Decision
)

// Allocate places a job under a per-core power envelope.
func Allocate(cfg Config, job Job, envelopePerCore float64) Decision {
	return sched.Allocate(cfg, job, envelopePerCore)
}

// Metric-driven configuration optimization (§5 future work).
type (
	// OptWorkload describes an iterative data-parallel workload for
	// the optimizer.
	OptWorkload = opt.Workload
	// OptConfig is one (processes, distribution, frequency) point.
	OptConfig = opt.Config
	// OptEval is the cost model's verdict on one configuration.
	OptEval = opt.Eval
)

// Optimize enumerates configurations and returns the best feasible one
// under the metric, subject to a per-processor power envelope.
func Optimize(cfg Config, w OptWorkload, metric Metric, envelope float64, freqs []float64) (OptEval, []OptEval) {
	return opt.Optimize(cfg, w, metric, envelope, freqs)
}

// ChoosePlacement picks intra vs inter distribution for a job under an
// envelope, per the paper's guidance.
func ChoosePlacement(cfg Config, job Job, envelopePerCore float64) Decision {
	return sched.Choose(cfg, job, envelopePerCore)
}
