package core

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Group is a set of STAMP processes spawned together with common
// attributes — the paper's "parallel or distributed STAMPs" whose
// aggregate complexity follows rule 5 of §3.1 (T = max, E = sum,
// P = E/T).
type Group struct {
	sys       *System
	name      string
	attrs     Attrs
	n         int
	ctxs      []*Ctx
	bar       *sim.Barrier
	placement Placement

	// profPub is the profiler total vector last published on the event
	// stream (at a barrier generation); the next EvProfile event carries
	// the delta since. Only touched by the simulation goroutine, and only
	// while a stream is attached.
	profPub obs.CatTimes
}

// GroupOption configures a group at spawn time.
type GroupOption func(*groupConfig)

type groupConfig struct {
	placement  Placement
	startOrder []int
}

// WithPlacement overrides the default distribution-attribute placement
// with an explicit thread assignment (len must equal the group size).
// The power-aware allocator in internal/sched produces such placements.
func WithPlacement(pl Placement) GroupOption {
	return func(gc *groupConfig) { gc.placement = pl }
}

// WithStartOrder overrides the order in which member processes are
// spawned (and therefore first activate) with a permutation of member
// ranks. Contexts, mailboxes and profiles are still created in rank
// order — only process start order changes. Checkpoint restore uses
// this to reproduce the contribution order recorded at the snapshot,
// so the resumed schedule's FIFO tie-breaking matches the original
// run's.
func WithStartOrder(order []int) GroupOption {
	return func(gc *groupConfig) { gc.startOrder = order }
}

// NewGroup spawns n STAMP processes running body with the given
// attributes. body receives each member's Ctx; member ranks are
// ctx.Index() ∈ [0, n). Processes start at the current virtual time.
func (sys *System) NewGroup(name string, attrs Attrs, n int, body func(ctx *Ctx)) *Group {
	return sys.NewGroupOpts(name, attrs, n, body)
}

// NewGroupOpts is NewGroup with options.
func (sys *System) NewGroupOpts(name string, attrs Attrs, n int, body func(ctx *Ctx), opts ...GroupOption) *Group {
	if n < 1 {
		panic("core: group needs at least one process")
	}
	var gc groupConfig
	for _, o := range opts {
		o(&gc)
	}
	pl := gc.placement
	if pl == nil {
		pl = sys.PlaceGroup(attrs.Dist, n)
	}
	if len(pl) != n {
		panic(fmt.Sprintf("core: placement size %d != group size %d", len(pl), n))
	}

	g := &Group{
		sys:   sys,
		name:  name,
		attrs: attrs,
		n:     n,
		bar:   sim.NewBarrier(sys.K, n),
		// The group owns its placement: live migration (Ctx.Rebind)
		// updates it in place, which must never reach back into the
		// caller's slice (e.g. a sched.Decision reused for a second run).
		placement: append(Placement(nil), pl...),
	}
	order := gc.startOrder
	if order != nil {
		if len(order) != n {
			panic(fmt.Sprintf("core: start order size %d != group size %d", len(order), n))
		}
		seen := make([]bool, n)
		for _, i := range order {
			if i < 0 || i >= n || seen[i] {
				panic(fmt.Sprintf("core: start order %v is not a permutation of [0,%d)", order, n))
			}
			seen[i] = true
		}
	}

	// Contexts, mailboxes, profiles and thread bindings are created in
	// rank order regardless of start order, so member coordinates
	// (endpoint indices, profile names) are identical however the group
	// is later restored. Only the spawn loop follows the start order:
	// spawn order fixes the kernel's event-sequence assignment and with
	// it the FIFO tie-breaking of same-instant activations.
	g.ctxs = make([]*Ctx, n)
	for i := 0; i < n; i++ {
		pname := fmt.Sprintf("%s/%d", name, i)
		ctx := &Ctx{sys: sys, g: g, idx: i, thread: pl[i]}
		ctx.ep = sys.Net.NewEndpoint(pname, pl[i])
		ctx.prof = sys.Obs.Profiler().Proc(pname)
		sys.M.Bind(pl[i])
		g.ctxs[i] = ctx
	}
	for j := 0; j < n; j++ {
		i := j
		if order != nil {
			i = order[j]
		}
		ctx := g.ctxs[i]
		pname := fmt.Sprintf("%s/%d", name, i)
		ctx.p = sys.K.Spawn(pname, func(p *sim.Proc) {
			ctx.start = p.Now()
			if s := ctx.restoreSnap; s != nil {
				ctx.restoreSnap = nil
				ctx.applyRestore(s)
			}
			if tr := sys.Obs.Tracer(); tr.Enabled() {
				ctx.procSpan = tr.Begin(ctx.start, pname, "proc", pname, 0)
			}
			defer func() {
				ctx.end = p.Now()
				sys.Obs.Tracer().End(ctx.procSpan, ctx.end)
				if p.Unwinding() {
					// A kill or an error teardown interrupts instrumented
					// sections mid-flight: charges may exceed the elapsed
					// total, so seal leniently.
					ctx.prof.FinishInterrupted(ctx.end - ctx.start)
				} else {
					ctx.prof.Finish(ctx.end - ctx.start)
				}
				sys.M.Release(ctx.thread)
			}()
			body(ctx)
		})
		ctx.p.Ctx = ctx
	}
	sys.groups = append(sys.groups, g)
	return g
}

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// Attrs returns the group's STAMP attributes.
func (g *Group) Attrs() Attrs { return g.attrs }

// Size returns the number of member processes.
func (g *Group) Size() int { return g.n }

// Ctxs returns the member contexts in rank order.
func (g *Group) Ctxs() []*Ctx { return g.ctxs }

// Placement returns the thread assignment of the group.
func (g *Group) Placement() Placement { return g.placement }

// Await blocks the calling STAMP process until every member of g has
// finished — how a parent waits for a nested STAMP (rule 4 of §3.1).
func (g *Group) Await(parent *Ctx) {
	for _, c := range g.ctxs {
		parent.p.Join(c.p)
	}
}

// ThreadsPerCoreUsed returns, per core index, how many group members
// are placed on that core — the quantity the power-envelope analysis
// constrains.
func (g *Group) ThreadsPerCoreUsed() map[int]int {
	out := make(map[int]int)
	for _, t := range g.placement {
		out[g.sys.M.Cfg.CoreOf(machine.ThreadID(t))]++
	}
	return out
}
