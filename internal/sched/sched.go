// Package sched implements the application the paper builds STAMP for:
// using the complexity estimates "to better utilize CMP/CMT-based
// machines within given constraints such as power". It allocates STAMP
// processes to hardware threads honoring the distribution attribute and
// per-processor power envelopes, reproducing decisions like §4's "the
// Jacobi algorithm should not be assigned to more than three
// intra-processor threads per processor".
package sched

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Job describes a group of identical STAMP processes to place.
type Job struct {
	Name string
	N    int // number of processes
	// PowerPerProc is the per-process power upper bound from the cost
	// model (e.g. cost.Jacobi.PowerBound()).
	PowerPerProc float64
	Dist         core.Dist
}

// Decision is the allocator's output.
type Decision struct {
	Job       Job
	Feasible  bool
	Reason    string
	Placement core.Placement
	// ThreadsPerCoreCap is how many of the job's processes one core
	// may run without violating the envelope (capped by the hardware
	// thread count).
	ThreadsPerCoreCap int
	// CoresUsed is the number of distinct cores in the placement.
	CoresUsed int
	// PerCorePower maps used core → estimated power.
	PerCorePower map[int]float64
	// Moved counts the processes Reallocate assigned a new thread
	// (always 0 for from-scratch allocations).
	Moved int
}

// CapPerCore returns how many processes with power p fit under a
// per-core envelope, bounded by the core's hardware thread count.
// A zero or negative envelope means "unlimited".
func CapPerCore(cfg machine.Config, p, envelope float64) int {
	cap := cfg.ThreadsPerCore
	if envelope > 0 && p > 0 {
		byPower := int(envelope / p)
		if byPower < cap {
			cap = byPower
		}
	}
	return cap
}

// Allocate places job's processes on cfg under a per-core power
// envelope. IntraProc packs the minimum number of cores (filling each
// up to its power cap); InterProc deals processes round-robin across
// all cores up to the cap. If the machine cannot hold the job within
// the envelope, Feasible is false and Placement is nil.
func Allocate(cfg machine.Config, job Job, envelopePerCore float64) Decision {
	return AllocateExcluding(cfg, job, envelopePerCore, nil)
}

// AllocateExcluding is Allocate restricted to the cores NOT marked in
// down — the re-placement entry point of graceful degradation: after
// a fault.Plan reports failed cores, the controller asks for a new
// placement of the surviving work on the surviving silicon, still
// under the power envelope. A nil or empty down map is exactly
// Allocate.
func AllocateExcluding(cfg machine.Config, job Job, envelopePerCore float64, down map[int]bool) Decision {
	d, order := feasible(cfg, job, envelopePerCore, down)
	if !d.Feasible {
		return d
	}
	cap := d.ThreadsPerCoreCap
	d.Placement = make(core.Placement, job.N)
	perCore := make([]int, cfg.NumCores())
	place := func(i, c int) {
		th := machine.ThreadID(c*cfg.ThreadsPerCore + perCore[c])
		d.Placement[i] = th
		perCore[c]++
		d.PerCorePower[c] += job.PowerPerProc
	}
	switch job.Dist {
	case core.IntraProc:
		idx := 0
		for i := 0; i < job.N; i++ {
			for perCore[order[idx]] >= cap {
				idx++
			}
			place(i, order[idx])
		}
	case core.InterProc:
		// Deal round-robin, but on clustered machines fill one
		// cluster's cores before spilling to the next: the cross-
		// cluster link is the slowest tier (L_c > L_x > L_e), so a job
		// that fits one cluster must never pay it. Flat machines form
		// a single group, which is exactly the old global round-robin.
		i := 0
		for _, grp := range clusterGroups(cfg, order) {
			room := cap * len(grp)
			idx := 0
			for i < job.N && room > 0 {
				for perCore[grp[idx]] >= cap {
					idx = (idx + 1) % len(grp)
				}
				place(i, grp[idx])
				idx = (idx + 1) % len(grp)
				i++
				room--
			}
			if i >= job.N {
				break
			}
		}
	default:
		panic(fmt.Sprintf("sched: unknown distribution %d", job.Dist))
	}
	for _, n := range perCore {
		if n > 0 {
			d.CoresUsed++
		}
	}
	d.Reason = fmt.Sprintf("placed %d processes on %d core(s), ≤%d per core",
		job.N, d.CoresUsed, cap)
	return d
}

// feasible is the refusal arithmetic AllocateExcluding and Reallocate
// share, so an infeasible job gets the same reason from either. It
// returns the decision with the per-core cap filled in, and Feasible
// set together with the usable (surviving) cores in visit order when
// the job fits; otherwise Reason says why not and order is nil.
func feasible(cfg machine.Config, job Job, envelopePerCore float64, down map[int]bool) (d Decision, order []int) {
	d = Decision{Job: job, PerCorePower: map[int]float64{}}
	if job.N < 1 {
		d.Reason = "empty job"
		return d, nil
	}
	cap := CapPerCore(cfg, job.PowerPerProc, envelopePerCore)
	d.ThreadsPerCoreCap = cap
	if cap == 0 {
		d.Reason = fmt.Sprintf("one process (P≤%.3g) already exceeds the %.3g envelope",
			job.PowerPerProc, envelopePerCore)
		return d, nil
	}
	cores := cfg.NumCores()
	// The placement loops only ever index into order, so a down core
	// can never receive a process.
	order = make([]int, 0, cores)
	for c := 0; c < cores; c++ {
		if !down[c] {
			order = append(order, c)
		}
	}
	alive := len(order)
	if alive == 0 {
		d.Reason = fmt.Sprintf("all %d cores are down", cores)
		return d, nil
	}
	if job.N > cap*alive {
		if alive == cores {
			d.Reason = fmt.Sprintf("need %d slots but machine offers %d cores × %d = %d under the envelope",
				job.N, cores, cap, cap*cores)
		} else {
			d.Reason = fmt.Sprintf("need %d slots but only %d of %d cores survive × %d = %d under the envelope",
				job.N, alive, cores, cap, cap*alive)
		}
		return d, nil
	}
	// On heterogeneous machines, visit faster processors first: local
	// operations finish sooner there at the same hardware-thread count
	// (power rises as mult³, but the envelope accounting here uses the
	// caller's per-process estimate either way). Order is stable for
	// equal speeds, so homogeneous machines keep the 0,1,2,… layout.
	sort.SliceStable(order, func(a, b int) bool {
		return cfg.CoreMult(order[a]) > cfg.CoreMult(order[b])
	})
	d.Feasible = true
	return d, order
}

// clusterGroups partitions the (speed-ordered) usable cores by the
// cluster they belong to, preserving order within each group. Cluster
// order follows first appearance, so faster clusters come first on
// heterogeneous machines. Flat machines yield one group.
func clusterGroups(cfg machine.Config, order []int) [][]int {
	if cfg.NumClusters() <= 1 {
		return [][]int{order}
	}
	idx := map[int]int{}
	var groups [][]int
	for _, c := range order {
		cl := cfg.ClusterOf(machine.ThreadID(c * cfg.ThreadsPerCore))
		g, ok := idx[cl]
		if !ok {
			g = len(groups)
			idx[cl] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], c)
	}
	return groups
}

// Record publishes the allocation decision as gauges, so placement and
// power-envelope headroom are scrapeable alongside the run's metrics:
//
//	stamp_sched_feasible{job}            1 if the job was placeable
//	stamp_sched_cores_used{job}          distinct cores in the placement
//	stamp_sched_threads_per_core_cap{job}
//	stamp_sched_core_power{job,core}     estimated power per used core
//	stamp_sched_envelope_headroom{job,core}  envelope − estimated power
//
// No-op on a nil registry.
func (d Decision) Record(r *obs.Registry, envelopePerCore float64) {
	if r == nil {
		return
	}
	jl := obs.L("job", d.Job.Name)
	feasible := 0.0
	if d.Feasible {
		feasible = 1
	}
	r.Gauge("stamp_sched_feasible", "Whether the job fit under the power envelope.", jl).Set(feasible)
	r.Gauge("stamp_sched_cores_used", "Distinct cores used by the placement.", jl).Set(float64(d.CoresUsed))
	r.Gauge("stamp_sched_threads_per_core_cap", "Processes one core may run under the envelope.", jl).Set(float64(d.ThreadsPerCoreCap))
	for c, p := range d.PerCorePower {
		cl := obs.L("core", strconv.Itoa(c))
		r.Gauge("stamp_sched_core_power", "Estimated power of the job's processes on this core.", jl, cl).Set(p)
		if envelopePerCore > 0 {
			r.Gauge("stamp_sched_envelope_headroom", "Per-core power envelope minus estimated power.", jl, cl).Set(envelopePerCore - p)
		}
	}
}

// Verify re-checks a decision against the envelope; it returns an error
// if any core's estimated power exceeds it (a safety net for
// hand-written placements).
func Verify(cfg machine.Config, d Decision, envelopePerCore float64) error {
	if !d.Feasible {
		return nil
	}
	perCore := map[int]float64{}
	perThread := map[machine.ThreadID]int{}
	for _, th := range d.Placement {
		perCore[cfg.CoreOf(th)] += d.Job.PowerPerProc
		perThread[th]++
		if perThread[th] > 1 {
			return fmt.Errorf("sched: thread %d assigned %d processes", th, perThread[th])
		}
	}
	if envelopePerCore > 0 {
		for c, p := range perCore {
			if p > envelopePerCore+1e-9 {
				return fmt.Errorf("sched: core %d at %.3g exceeds envelope %.3g", c, p, envelopePerCore)
			}
		}
	}
	return nil
}

// Choose picks a distribution for the job: intra_proc when the whole
// job fits under the envelope on one processor (fastest communication,
// the paper's stated preference), otherwise inter_proc to spread power
// across processors; it returns the winning decision.
func Choose(cfg machine.Config, job Job, envelopePerCore float64) Decision {
	intra := job
	intra.Dist = core.IntraProc
	di := Allocate(cfg, intra, envelopePerCore)
	if di.Feasible && di.CoresUsed == 1 {
		di.Reason = "intra_proc: whole job fits one processor under the envelope; " + di.Reason
		return di
	}
	inter := job
	inter.Dist = core.InterProc
	de := Allocate(cfg, inter, envelopePerCore)
	if de.Feasible {
		de.Reason = "inter_proc: spreading to stay within per-processor power; " + de.Reason
		return de
	}
	if di.Feasible {
		di.Reason = "intra_proc (multi-core packing): " + di.Reason
		return di
	}
	return de
}
