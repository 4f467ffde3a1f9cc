// Package core implements the STAMP algorithmic model itself: processes
// with the paper's attribute axes (distribution, execution,
// communication), structured into S-units and S-rounds, executing over
// the simulated CMP/CMT machine with full time/energy/power accounting
// per the complexity rules of §3.1.
package core

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/msgpass"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stm"
)

// System bundles one simulated machine with its substrates: queued
// shared memory, the message-passing network and the transactional
// memory. STAMP process groups are spawned on a System.
type System struct {
	K   *sim.Kernel
	M   *machine.Machine
	Mem *memory.Memory
	Net *msgpass.Network
	TM  *stm.STM

	// SG is always nil: every System runs on the one kernel K. The
	// field remains only because perfbench/layers.go still reads it and
	// changes only together with the benchmark; drop that read, then
	// this field.
	SG interface {
		NumShards() int
		Shard(i int) *sim.Kernel
	}

	// Obs, when non-nil, carries the observability sinks (metrics
	// registry, span tracer, virtual-time profiler). Every sink is
	// independently optional and its nil form is a no-op.
	Obs *obs.Observer

	groups []*Group
}

// Option configures a System.
type Option func(*System)

// WithContentionManager selects the STM contention manager (default
// Passive).
func WithContentionManager(m stm.ContentionManager) Option {
	return func(s *System) { s.TM.Manager = m }
}

// WithObs attaches an observability bundle (metrics, spans, profiler).
func WithObs(o *obs.Observer) Option {
	return func(s *System) { s.Obs = o }
}

// globalOpts are applied to every System NewSystem builds, before the
// per-call options. Process-wide tooling (stampbench -race attaching a
// detector to each experiment's system) registers here.
var globalOpts []Option

// AddGlobalOption registers an Option applied to every subsequently
// built System, before per-call options. Register before any
// simulation starts: the slice is read, unlocked, from every
// NewSystem call, including ones on parallel experiment workers. The
// returned function unregisters the option (for tests that must not
// leak it into the rest of the binary); it is idempotent, so calling
// it more than once — e.g. from both a deferred cleanup and an explicit
// teardown path — is a no-op after the first call and can never clear
// a slot a later registration has reused.
func AddGlobalOption(o Option) (remove func()) {
	globalOpts = append(globalOpts, o)
	i := len(globalOpts) - 1
	removed := false
	return func() {
		if removed {
			return
		}
		removed = true
		globalOpts[i] = nil
	}
}

// NewSystem builds a System on a fresh kernel for machine configuration
// cfg.
func NewSystem(cfg machine.Config, opts ...Option) *System {
	m := machine.New(sim.NewKernel(), cfg)
	sys := &System{
		K:   m.K,
		M:   m,
		Mem: memory.New(m),
		Net: msgpass.New(m),
		TM:  stm.New(m, nil),
	}
	for _, o := range globalOpts {
		if o != nil {
			o(sys)
		}
	}
	for _, o := range opts {
		o(sys)
	}
	return sys
}

// Run executes the simulation to completion and returns the kernel's
// error, if any.
func (sys *System) Run() error { return sys.K.Run() }

// Groups returns every group spawned on the system, in creation order.
func (sys *System) Groups() []*Group { return sys.groups }

// Placement maps each group member index to a hardware thread.
type Placement []machine.ThreadID

// PlaceGroup computes the default placement of n processes under
// distribution attribute d, taking current occupancy into account:
//
//   - IntraProc packs members densely, filling every hardware thread of
//     a core before moving to the next core (minimizing inter-processor
//     communication, the paper's stated intent for intra_proc);
//   - InterProc deals members round-robin, one thread per core per
//     pass, spreading power across processors.
//
// If n exceeds the free thread count, placement wraps and oversubscribes
// (several STAMP processes may share a hardware thread).
func (sys *System) PlaceGroup(d Dist, n int) Placement {
	cfg := sys.M.Cfg
	pl := make(Placement, n)
	switch d {
	case IntraProc:
		for i := range pl {
			pl[i] = machine.ThreadID(i % cfg.NumThreads())
		}
	case InterProc:
		cores := cfg.NumCores()
		for i := range pl {
			core := i % cores
			pass := i / cores
			th := pass % cfg.ThreadsPerCore
			pl[i] = machine.ThreadID(core*cfg.ThreadsPerCore + th)
		}
	default:
		panic(fmt.Sprintf("core: unknown distribution %d", d))
	}
	return pl
}
