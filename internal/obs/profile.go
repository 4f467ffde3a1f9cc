package obs

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Category classifies attributed virtual time in a process profile.
type Category int

// Profile categories: every tick of a process's wall (virtual) time is
// attributed to exactly one of these; CatOther is the unattributed
// remainder, so the categories always sum to the process's total T.
const (
	// CatCompute is local computation (FpOps/IntOps charging).
	CatCompute Category = iota
	// CatMemWait is serialized shared-memory access: κ queueing stalls
	// plus the per-access latency (ℓ) and per-word bandwidth (g) charges,
	// including transactional reads/writes of committed attempts.
	CatMemWait
	// CatMsgWait is message-passing latency: blocked receives,
	// synchronous-send delivery waits and injection/drain occupancy.
	CatMsgWait
	// CatBarrier is time blocked in group barriers (including the
	// implicit synch_comm round barrier).
	CatBarrier
	// CatTxRetry is aborted-and-retried transactional work: the full
	// cost of rolled-back attempts plus contention-manager backoff.
	CatTxRetry
	// CatFault is fault-recovery overhead: time lost to timed-out
	// receives over lossy links and retransmission backoff
	// (internal/fault's reliable-delivery layer charges here).
	CatFault
	// CatOther is everything not attributed above (spawn lag, plain
	// holds, blocked Retry waits outside instrumented sections).
	CatOther
	// NumCategories is the number of profile categories.
	NumCategories
)

// String names the category as rendered in profile tables.
func (c Category) String() string {
	switch c {
	case CatCompute:
		return "compute"
	case CatMemWait:
		return "memwait"
	case CatMsgWait:
		return "msgwait"
	case CatBarrier:
		return "barrier"
	case CatTxRetry:
		return "txretry"
	case CatFault:
		return "fault"
	case CatOther:
		return "other"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// CatTimes is a per-category virtual-time vector (a profile snapshot).
type CatTimes [NumCategories]sim.Time

// ProcProfile accumulates one process's attributed virtual time. A nil
// *ProcProfile is a valid disabled profile: every method is a no-op,
// which keeps the instrumented hot paths allocation-free when
// profiling is off.
type ProcProfile struct {
	Name  string
	Cats  CatTimes
	Total sim.Time // accumulated by Finish
	done  bool
	// sealedAttr is the attributed sum at the last Finish. Profiles are
	// found by process name, and short-lived nested groups (e.g. one
	// reservation sub-group per itinerary) legitimately reuse a name
	// across incarnations; sealing charges incrementally lets every
	// incarnation's lifetime accumulate into one per-role profile.
	sealedAttr sim.Time
}

// Charge attributes d ticks to category cat (no-op on nil or d ≤ 0).
func (p *ProcProfile) Charge(cat Category, d sim.Time) {
	if p == nil || d <= 0 {
		return
	}
	p.Cats[cat] += d
}

// Snapshot returns the current attribution vector (zero on nil).
func (p *ProcProfile) Snapshot() CatTimes {
	if p == nil {
		return CatTimes{}
	}
	return p.Cats
}

// MoveSince reattributes everything charged since snap to category
// `to` — how aborted transactional attempts fold the compute and
// memory time of the rolled-back work into CatTxRetry.
func (p *ProcProfile) MoveSince(snap CatTimes, to Category) {
	if p == nil {
		return
	}
	for c := Category(0); c < NumCategories; c++ {
		if c == to {
			continue
		}
		if d := p.Cats[c] - snap[c]; d > 0 {
			p.Cats[c] -= d
			p.Cats[to] += d
		}
	}
}

// FoldSince reattributes everything charged since snap to category
// `to` AND charges the unattributed remainder of the elapsed window
// there too. This is the aborted-transaction primitive: the whole
// attempt — instrumented charges and plain holds alike — was rolled
// back, so all of its elapsed time is retried work.
func (p *ProcProfile) FoldSince(snap CatTimes, elapsed sim.Time, to Category) {
	if p == nil {
		return
	}
	var delta sim.Time
	for c := Category(0); c < NumCategories; c++ {
		delta += p.Cats[c] - snap[c]
	}
	p.MoveSince(snap, to)
	if rem := elapsed - delta; rem > 0 {
		p.Cats[to] += rem
	}
}

// Attributed returns the sum of all categories except CatOther.
func (p *ProcProfile) Attributed() sim.Time {
	if p == nil {
		return 0
	}
	var sum sim.Time
	for c := Category(0); c < NumCategories; c++ {
		if c != CatOther {
			sum += p.Cats[c]
		}
	}
	return sum
}

// Finish seals one incarnation of the profile with its measured wall
// (virtual) time: the incarnation's unattributed remainder goes to
// CatOther and total accumulates into Total, so the categories always
// sum to Total exactly — across every incarnation of a reused process
// name (short-lived nested groups legitimately recreate the same
// member names, e.g. one reservation sub-group per itinerary).
// Attribution beyond the incarnation's total (impossible when the
// instrumented sections are non-overlapping) panics loudly rather
// than silently distorting the table.
func (p *ProcProfile) Finish(total sim.Time) {
	if p == nil {
		return
	}
	attr := p.Attributed()
	incr := attr - p.sealedAttr
	if incr > total {
		panic(fmt.Sprintf("obs: profile %q attributed %d ticks > total %d (cats %v)", p.Name, incr, total, p.Cats))
	}
	p.Cats[CatOther] += total - incr
	p.Total += total
	p.sealedAttr = attr
	p.done = true
}

// FinishInterrupted seals an incarnation of the profile of a process
// that was forcibly killed or torn down by a failing run. Either can
// interrupt an instrumented section after its charge but before the
// corresponding virtual time elapsed, so attribution may legitimately
// exceed the elapsed total;
// the profile keeps the charges as recorded (its categories may sum
// to more than Total) rather than panicking like Finish.
func (p *ProcProfile) FinishInterrupted(total sim.Time) {
	if p == nil {
		return
	}
	attr := p.Attributed()
	if rem := total - (attr - p.sealedAttr); rem > 0 {
		p.Cats[CatOther] += rem
	}
	p.Total += total
	p.sealedAttr = attr
	p.done = true
}

// Sum returns the category total (= Total after Finish).
func (p *ProcProfile) Sum() sim.Time {
	if p == nil {
		return 0
	}
	var sum sim.Time
	for _, d := range p.Cats {
		sum += d
	}
	return sum
}

// Profiler collects per-process virtual-time profiles. A nil
// *Profiler is a valid disabled profiler.
type Profiler struct {
	order []string
	procs map[string]*ProcProfile
}

// NewProfiler returns an empty enabled profiler.
func NewProfiler() *Profiler {
	return &Profiler{procs: map[string]*ProcProfile{}}
}

// Enabled reports whether the profiler records anything.
func (pf *Profiler) Enabled() bool { return pf != nil }

// Proc finds or creates the profile of the named process. Returns nil
// on a nil profiler, which downstream Charge calls tolerate.
func (pf *Profiler) Proc(name string) *ProcProfile {
	if pf == nil {
		return nil
	}
	p := pf.procs[name]
	if p == nil {
		p = &ProcProfile{Name: name}
		pf.procs[name] = p
		pf.order = append(pf.order, name)
	}
	return p
}

// Profiles returns every profile in registration order.
func (pf *Profiler) Profiles() []*ProcProfile {
	if pf == nil {
		return nil
	}
	out := make([]*ProcProfile, 0, len(pf.order))
	for _, name := range pf.order {
		out = append(out, pf.procs[name])
	}
	return out
}

// Totals returns the per-category sum across every profile — the
// fleet-wide attribution vector at this instant. Zero on a nil
// profiler. Streaming publishes deltas of this vector at barrier
// generations.
func (pf *Profiler) Totals() CatTimes {
	var tot CatTimes
	if pf == nil {
		return tot
	}
	for _, name := range pf.order {
		p := pf.procs[name]
		for c := Category(0); c < NumCategories; c++ {
			tot[c] += p.Cats[c]
		}
	}
	return tot
}

// Table renders the per-process breakdown: one row per process with
// every category, a percent-of-total compute column, and a footer
// summing the fleet.
func (pf *Profiler) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "virtual-time profile (ticks per category; categories sum to T)\n")
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %10s %10s %10s %10s %10s %7s\n",
		"proc", "T", "compute", "memwait", "msgwait", "barrier", "txretry", "fault", "other", "comp%")
	var tot ProcProfile
	for _, p := range pf.Profiles() {
		pct := 0.0
		if p.Total > 0 {
			pct = 100 * float64(p.Cats[CatCompute]) / float64(p.Total)
		}
		fmt.Fprintf(&b, "%-16s %10d %10d %10d %10d %10d %10d %10d %10d %6.1f%%\n",
			p.Name, p.Total,
			p.Cats[CatCompute], p.Cats[CatMemWait], p.Cats[CatMsgWait],
			p.Cats[CatBarrier], p.Cats[CatTxRetry], p.Cats[CatFault], p.Cats[CatOther], pct)
		tot.Total += p.Total
		for c := Category(0); c < NumCategories; c++ {
			tot.Cats[c] += p.Cats[c]
		}
	}
	pct := 0.0
	if tot.Total > 0 {
		pct = 100 * float64(tot.Cats[CatCompute]) / float64(tot.Total)
	}
	fmt.Fprintf(&b, "%-16s %10d %10d %10d %10d %10d %10d %10d %10d %6.1f%%\n",
		"(all)", tot.Total,
		tot.Cats[CatCompute], tot.Cats[CatMemWait], tot.Cats[CatMsgWait],
		tot.Cats[CatBarrier], tot.Cats[CatTxRetry], tot.Cats[CatFault], tot.Cats[CatOther], pct)
	return b.String()
}

// Hotspots renders the top-n processes by non-compute (overhead) time
// — where optimization effort should go first.
func (pf *Profiler) Hotspots(n int) string {
	ps := pf.Profiles()
	type hot struct {
		p        *ProcProfile
		overhead sim.Time
	}
	hots := make([]hot, 0, len(ps))
	for _, p := range ps {
		hots = append(hots, hot{p, p.Total - p.Cats[CatCompute]})
	}
	sort.SliceStable(hots, func(i, j int) bool { return hots[i].overhead > hots[j].overhead })
	if n > len(hots) {
		n = len(hots)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "top %d overhead hotspots (non-compute time)\n", n)
	for i := 0; i < n; i++ {
		h := hots[i]
		worst, worstCat := sim.Time(-1), CatOther
		for c := CatMemWait; c < NumCategories; c++ {
			if h.p.Cats[c] > worst {
				worst, worstCat = h.p.Cats[c], c
			}
		}
		pct := 0.0
		if h.p.Total > 0 {
			pct = 100 * float64(h.overhead) / float64(h.p.Total)
		}
		fmt.Fprintf(&b, "%2d. %-16s overhead %d/%d ticks (%.1f%%), dominated by %s (%d)\n",
			i+1, h.p.Name, h.overhead, h.p.Total, pct, worstCat, worst)
	}
	return b.String()
}

// Collect dumps the profiler into a registry as per-process gauges
// stamp_proc_time_ticks{proc,cat} plus stamp_proc_total_ticks{proc}.
func (pf *Profiler) Collect(r *Registry) {
	if pf == nil || r == nil {
		return
	}
	for _, p := range pf.Profiles() {
		r.Gauge("stamp_proc_total_ticks", "Process wall (virtual) time.",
			L("proc", p.Name)).Set(float64(p.Total))
		for c := Category(0); c < NumCategories; c++ {
			r.Gauge("stamp_proc_time_ticks", "Process virtual time by category.",
				L("proc", p.Name), L("cat", c.String())).Set(float64(p.Cats[c]))
		}
	}
}
