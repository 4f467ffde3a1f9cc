// Package memory implements the STAMP shared-memory substrate: queued
// (serialized) access to shared locations with the paper's intra-/
// inter-processor latency (ℓ_a, ℓ_e) and bandwidth (g_sh_a, g_sh_e)
// parameters. Its queuing discipline follows the QSM heritage the paper
// cites: concurrent accesses to one location are serviced sequentially,
// and the time spent queued is recorded as the measured counterpart of
// the model's κ term.
package memory

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Agent is the accessing process as the memory system sees it. The
// STAMP core's execution context implements it.
type Agent interface {
	// Proc returns the simulated process performing the access.
	Proc() *sim.Proc
	// Thread returns the hardware thread the process is bound to.
	Thread() machine.ThreadID
	// Counters returns the process's operation counters.
	Counters() *energy.Counters
	// ChargeCost charges virtual time, accumulating fractional ticks
	// deterministically per profile category, and attributes the
	// materialized whole ticks to cat.
	ChargeCost(cat obs.Category, ticks float64)
	// Profile returns the process's virtual-time profile sink, or nil
	// when profiling is disabled (the nil profile is a no-op).
	Profile() *obs.ProcProfile
}

// Scope says which level of the memory hierarchy backs a region, which
// determines both latency class and operation counting.
type Scope int

const (
	// Intra regions live in processor-local shared storage (the L1 in
	// the paper's example): accesses from threads of the home core are
	// intra-processor (ℓ_a); accesses from elsewhere fall back to
	// inter-processor cost (ℓ_e).
	Intra Scope = iota
	// Inter regions live in chip-level shared storage (the L2):
	// every access is inter-processor (ℓ_e).
	Inter
)

// String returns "intra" or "inter".
func (s Scope) String() string {
	if s == Intra {
		return "intra"
	}
	return "inter"
}

// AccessKind classifies a shared-memory access for probes.
type AccessKind uint8

const (
	// AccessRead is a plain serialized read.
	AccessRead AccessKind = iota
	// AccessWrite is a plain serialized write.
	AccessWrite
	// AccessAtomic is a read-modify-write (FetchAdd): it both reads and
	// writes, but concurrent atomics to the same word serialize without
	// lost updates, so a race checker treats two atomics as ordered
	// while an atomic still conflicts with a plain access.
	AccessAtomic
)

// String returns "read", "write" or "atomic".
func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessAtomic:
		return "atomic"
	}
	return fmt.Sprintf("AccessKind(%d)", uint8(k))
}

// Probe observes charged shared-memory accesses. The race detector
// (internal/racedet) is the one implementation; it must be passive (no
// holds, no blocking). Backdoor accessors (Peek/Poke/Snapshot/Fill) and
// regions marked AllowRaces are never reported.
type Probe interface {
	// Access fires after the serialization/latency/bandwidth charges of
	// one access to word i of the identified region, performed by p.
	Access(region string, regionID, i int, p *sim.Proc, kind AccessKind)
}

// Memory is the shared-memory subsystem of one simulated machine.
type Memory struct {
	m *machine.Machine
	// ServiceTime is how long one location stays busy per access; it
	// is the unit in which queuing (κ) accumulates. Default 1 tick.
	ServiceTime sim.Time
	regions     []regionInfo
	probe       Probe
}

// SetProbe attaches an access probe to the memory system (nil
// detaches). Attach before the simulation runs.
func (mem *Memory) SetProbe(pr Probe) { mem.probe = pr }

type regionInfo struct {
	name     string
	words    int
	stats    func() RegionStats
	snapshot func() RegionBlob
	restore  func(RegionBlob) error
}

// RegionBlob is one region's full checkpointable state: values,
// per-location service-queue horizon and access counters. Vals holds a
// copy of the typed value slice ([]T) behind an any — the restoring
// side type-asserts it back, so a blob only round-trips into a region
// of the identical element type. Regions marked AllowRaces are captured
// like any other: at a barrier-consistent instant there are no accesses
// in progress, so even a racy region's contents are well-defined.
type RegionBlob struct {
	Name     string
	Vals     any
	NextFree []sim.Time
	Reads    int64
	Writes   int64
	Stalled  int64
	StallT   sim.Time
	MaxDepth int64
}

// RegionStats is one region's access/contention summary, exported for
// the metrics registry.
type RegionStats struct {
	Name          string
	Words         int
	Scope         Scope
	Reads, Writes int64
	// Stalled counts accesses that found their location busy; StallTicks
	// is the total time those accesses queued (the measured κ input).
	Stalled    int64
	StallTicks sim.Time
	// MaxQueueDepth is the deepest per-location service queue observed,
	// in outstanding service slots.
	MaxQueueDepth int64
}

// New creates the memory subsystem for machine m.
func New(m *machine.Machine) *Memory {
	return &Memory{m: m, ServiceTime: 1}
}

// Machine returns the backing machine.
func (mem *Memory) Machine() *machine.Machine { return mem.m }

// Regions returns the names and sizes of all allocated regions.
func (mem *Memory) Regions() []string {
	var out []string
	for _, r := range mem.regions {
		out = append(out, fmt.Sprintf("%s[%d]", r.name, r.words))
	}
	return out
}

// RegionStats returns the per-region access and contention summaries
// in allocation order.
func (mem *Memory) RegionStats() []RegionStats {
	out := make([]RegionStats, 0, len(mem.regions))
	for _, r := range mem.regions {
		out = append(out, r.stats())
	}
	return out
}

// Region is a fixed-size array of shared words of type T with
// per-location access queues.
type Region[T any] struct {
	mem      *Memory
	name     string
	id       int // allocation index within mem, for probes
	scope    Scope
	homeCore int // meaningful for Intra scope
	vals     []T
	nextFree []sim.Time
	reads    int64
	writes   int64
	stalled  int64
	stallT   sim.Time
	maxDepth int64
	racyOK   bool   // AllowRaces was called: exempt from race checking
	racyWhy  string // the declared justification
}

// NewRegion allocates a shared region of n words. For Intra scope,
// homeCore is the processor whose threads get ℓ_a latency; pass 0 for
// Inter scope (ignored).
func NewRegion[T any](mem *Memory, name string, scope Scope, homeCore, n int) *Region[T] {
	if n < 0 {
		panic("memory: negative region size")
	}
	if scope == Intra && (homeCore < 0 || homeCore >= mem.m.Cfg.NumCores()) {
		panic(fmt.Sprintf("memory: home core %d out of range", homeCore))
	}
	r := &Region[T]{
		mem:      mem,
		name:     name,
		id:       len(mem.regions),
		scope:    scope,
		homeCore: homeCore,
		vals:     make([]T, n),
		nextFree: make([]sim.Time, n),
	}
	// The stats/snapshot/restore closures erase the type parameter so
	// Memory can enumerate and checkpoint regions of any element type.
	mem.regions = append(mem.regions, regionInfo{
		name: name, words: n,
		stats: func() RegionStats {
			return RegionStats{
				Name: r.name, Words: len(r.vals), Scope: r.scope,
				Reads: r.reads, Writes: r.writes,
				Stalled: r.stalled, StallTicks: r.stallT, MaxQueueDepth: r.maxDepth,
			}
		},
		snapshot: func() RegionBlob {
			vals := make([]T, len(r.vals))
			copy(vals, r.vals)
			next := make([]sim.Time, len(r.nextFree))
			copy(next, r.nextFree)
			return RegionBlob{
				Name: r.name, Vals: vals, NextFree: next,
				Reads: r.reads, Writes: r.writes,
				Stalled: r.stalled, StallT: r.stallT, MaxDepth: r.maxDepth,
			}
		},
		restore: func(b RegionBlob) error {
			vals, ok := b.Vals.([]T)
			if !ok {
				return fmt.Errorf("memory: region %q: blob holds %T, want []%T", r.name, b.Vals, *new(T))
			}
			if len(vals) != len(r.vals) || len(b.NextFree) != len(r.nextFree) {
				return fmt.Errorf("memory: region %q: blob size %d/%d, want %d", r.name, len(vals), len(b.NextFree), len(r.vals))
			}
			copy(r.vals, vals)
			copy(r.nextFree, b.NextFree)
			r.reads, r.writes = b.Reads, b.Writes
			r.stalled, r.stallT, r.maxDepth = b.Stalled, b.StallT, b.MaxDepth
			return nil
		},
	})
	return r
}

// SnapshotRegions captures every region's state in allocation order.
func (mem *Memory) SnapshotRegions() []RegionBlob {
	out := make([]RegionBlob, 0, len(mem.regions))
	for _, r := range mem.regions {
		out = append(out, r.snapshot())
	}
	return out
}

// RestoreRegions overwrites region state from blobs. The restoring
// Memory must have allocated the same regions in the same order (same
// names, sizes and element types) as the checkpointed one.
func (mem *Memory) RestoreRegions(blobs []RegionBlob) error {
	if len(blobs) != len(mem.regions) {
		return fmt.Errorf("memory: restore with %d region blobs, have %d regions", len(blobs), len(mem.regions))
	}
	for i, b := range blobs {
		if b.Name != mem.regions[i].name {
			return fmt.Errorf("memory: restore region %d: blob %q, have %q", i, b.Name, mem.regions[i].name)
		}
		if err := mem.regions[i].restore(b); err != nil {
			return err
		}
	}
	return nil
}

// Name returns the region's name.
func (r *Region[T]) Name() string { return r.name }

// Len returns the number of words.
func (r *Region[T]) Len() int { return len(r.vals) }

// Scope returns the region's scope.
func (r *Region[T]) Scope() Scope { return r.scope }

// Stats returns the total serialized reads and writes performed.
func (r *Region[T]) Stats() (reads, writes int64) { return r.reads, r.writes }

// intraFor reports whether an access by thread t is intra-processor.
func (r *Region[T]) intraFor(t machine.ThreadID) bool {
	return r.scope == Intra && r.mem.m.Cfg.CoreOf(t) == r.homeCore
}

// AllowRaces declares that conflicting unsynchronized accesses to this
// region are benign by design — deliberately racy algorithms (chaotic
// relaxation, monotone fixpoints, racy counters whose loss is the
// quantity being measured) — and exempts it from model-race checking.
// The justification is mandatory and kept for reports. Returns r for
// use at the allocation site.
func (r *Region[T]) AllowRaces(reason string) *Region[T] {
	if reason == "" {
		panic("memory: AllowRaces requires a justification")
	}
	r.racyOK = true
	r.racyWhy = reason
	return r
}

// RacesAllowed reports whether AllowRaces was called, and the declared
// justification.
func (r *Region[T]) RacesAllowed() (bool, string) { return r.racyOK, r.racyWhy }

// access performs the common serialization + latency + bandwidth
// charging and returns whether the access was intra-processor.
func (r *Region[T]) access(a Agent, i int, kind AccessKind) bool {
	if i < 0 || i >= len(r.vals) {
		panic(fmt.Sprintf("memory: %s index %d out of range [0,%d)", r.name, i, len(r.vals)))
	}
	p := a.Proc()
	now := p.Now()
	// Queued (serialized) access: reserve the next service slot
	// atomically (before yielding), then wait for it. Same-instant
	// accessors thus serialize strictly instead of double-booking.
	start := r.nextFree[i]
	if start < now {
		start = now
	}
	r.nextFree[i] = start + r.mem.ServiceTime
	if wait := start - now; wait > 0 {
		a.Counters().QueueWait += wait
		r.stalled++
		r.stallT += wait
		if st := r.mem.ServiceTime; st > 0 {
			if depth := int64((wait + st - 1) / st); depth > r.maxDepth {
				r.maxDepth = depth
			}
		}
		p.Hold(wait)
	}

	c := r.mem.m.Cfg.Costs
	intra := r.intraFor(a.Thread())
	ell, g := c.EllE, c.GShE
	if intra {
		ell, g = c.EllA, c.GShA
	}
	p.Hold(ell)
	// Queueing stall and latency are whole-tick holds, charged from the
	// measured window; the bandwidth charge may be fractional, so it
	// goes through ChargeCost, which attributes exactly the ticks it
	// materializes (fractional residue carries to the next g charge
	// instead of leaking into an unrelated category).
	a.Profile().Charge(obs.CatMemWait, p.Now()-now)
	a.ChargeCost(obs.CatMemWait, g)
	if pr := r.mem.probe; pr != nil && !r.racyOK {
		pr.Access(r.name, r.id, i, p, kind)
	}
	return intra
}

// Read performs a serialized shared read and returns the value observed
// at completion time.
func (r *Region[T]) Read(a Agent, i int) T {
	intra := r.access(a, i, AccessRead)
	if intra {
		a.Counters().ReadsIntra++
	} else {
		a.Counters().ReadsInter++
	}
	r.reads++
	return r.vals[i]
}

// Write performs a serialized shared write.
func (r *Region[T]) Write(a Agent, i int, v T) {
	intra := r.access(a, i, AccessWrite)
	if intra {
		a.Counters().WritesIntra++
	} else {
		a.Counters().WritesInter++
	}
	r.writes++
	r.vals[i] = v
}

// FetchAdd atomically adds delta to an integer-like word and returns
// the previous value. The read-modify-write occupies the location for
// one service slot, so concurrent FetchAdds serialize without lost
// updates — the hardware atomic the async_exec examples (shared
// counters, termination detectors) want.
func FetchAdd[T int64 | int32 | int](r *Region[T], a Agent, i int, delta T) T {
	intra := r.access(a, i, AccessAtomic)
	if intra {
		a.Counters().ReadsIntra++
		a.Counters().WritesIntra++
	} else {
		a.Counters().ReadsInter++
		a.Counters().WritesInter++
	}
	r.reads++
	r.writes++
	old := r.vals[i]
	r.vals[i] = old + delta
	return old
}

// ReadRange reads words [lo, hi) one serialized access at a time and
// returns a copy.
func (r *Region[T]) ReadRange(a Agent, lo, hi int) []T {
	out := make([]T, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, r.Read(a, i))
	}
	return out
}

// WriteRange writes vals starting at lo, one serialized access per word.
func (r *Region[T]) WriteRange(a Agent, lo int, vals []T) {
	for i, v := range vals {
		r.Write(a, lo+i, v)
	}
}

// Peek returns a word without simulation cost. For initialization,
// verification and tests only.
func (r *Region[T]) Peek(i int) T { return r.vals[i] }

// Poke sets a word without simulation cost. For initialization only.
func (r *Region[T]) Poke(i int, v T) { r.vals[i] = v }

// Snapshot returns a cost-free copy of the whole region.
func (r *Region[T]) Snapshot() []T {
	out := make([]T, len(r.vals))
	copy(out, r.vals)
	return out
}

// Fill pokes every word to v, cost-free.
func (r *Region[T]) Fill(v T) {
	for i := range r.vals {
		r.vals[i] = v
	}
}
