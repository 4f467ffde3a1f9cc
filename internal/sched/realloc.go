package sched

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
)

// Reallocate is the incremental variant of AllocateExcluding for a job
// that is already running on the placement `current`: every process
// whose thread's core survives (not in down) and fits under the
// envelope keeps its exact thread, and only the processes that must
// move — those on failed cores, or the excess when a shrinking
// envelope lowers the per-core cap below a core's occupancy — are
// re-placed. Movers go to surviving free slots cluster-aware: cores in
// clusters that already host keepers come first (the cross-cluster
// link is the slowest tier, so migration must not strand a process
// across it when room remains nearby), in the same speed-sorted order
// Allocate uses within each class.
//
// A Reallocate that moves nobody returns a placement identical to
// current, and its feasibility arithmetic (cap, slot counting, refusal
// reasons) is exactly AllocateExcluding's, so an infeasible job is
// refused with the same reason either way. A nil current is simply
// AllocateExcluding.
func Reallocate(cfg machine.Config, job Job, envelopePerCore float64, down map[int]bool, current core.Placement) Decision {
	if current == nil {
		return AllocateExcluding(cfg, job, envelopePerCore, down)
	}
	if len(current) != job.N {
		panic(fmt.Sprintf("sched: Reallocate placement has %d threads for a %d-process job", len(current), job.N))
	}
	d, order := feasible(cfg, job, envelopePerCore, down)
	if !d.Feasible {
		return d
	}
	cap := d.ThreadsPerCoreCap

	// Keepers hold their exact threads: first-come per core up to the
	// cap, so under a tightened envelope the later-ranked occupants of
	// an over-cap core are the ones that move.
	d.Placement = make(core.Placement, job.N)
	perCore := make([]int, cfg.NumCores())
	taken := make(map[machine.ThreadID]bool, job.N)
	movers := make([]int, 0, job.N)
	keeperCluster := make(map[int]bool)
	for i, th := range current {
		c := cfg.CoreOf(th)
		if down[c] || perCore[c] >= cap || taken[th] {
			movers = append(movers, i)
			continue
		}
		d.Placement[i] = th
		taken[th] = true
		perCore[c]++
		d.PerCorePower[c] += job.PowerPerProc
		keeperCluster[cfg.ClusterOf(th)] = true
	}
	d.Moved = len(movers)

	// Mover destination order: surviving cores in clusters hosting
	// keepers first, then the rest, each class in Allocate's
	// speed-sorted stable order.
	moverOrder := make([]int, 0, len(order))
	for _, c := range order {
		if keeperCluster[cfg.ClusterOf(machine.ThreadID(c*cfg.ThreadsPerCore))] {
			moverOrder = append(moverOrder, c)
		}
	}
	for _, c := range order {
		if !keeperCluster[cfg.ClusterOf(machine.ThreadID(c*cfg.ThreadsPerCore))] {
			moverOrder = append(moverOrder, c)
		}
	}
	place := func(i, c int) {
		// Lowest free hardware thread on c; a keeper may hold any slot.
		for k := 0; k < cfg.ThreadsPerCore; k++ {
			th := machine.ThreadID(c*cfg.ThreadsPerCore + k)
			if !taken[th] {
				d.Placement[i] = th
				taken[th] = true
				break
			}
		}
		perCore[c]++
		d.PerCorePower[c] += job.PowerPerProc
	}
	for _, i := range movers {
		switch job.Dist {
		case core.IntraProc:
			// Pack: first destination with room.
			for _, c := range moverOrder {
				if perCore[c] < cap {
					place(i, c)
					break
				}
			}
		case core.InterProc:
			// Spread: least-loaded destination, ties by order.
			best := -1
			for _, c := range moverOrder {
				if perCore[c] < cap && (best < 0 || perCore[c] < perCore[best]) {
					best = c
				}
			}
			place(i, best)
		default:
			panic(fmt.Sprintf("sched: unknown distribution %d", job.Dist))
		}
	}
	for _, n := range perCore {
		if n > 0 {
			d.CoresUsed++
		}
	}
	d.Reason = fmt.Sprintf("kept %d and moved %d of %d processes; %d core(s), ≤%d per core",
		job.N-d.Moved, d.Moved, job.N, d.CoresUsed, cap)
	return d
}
