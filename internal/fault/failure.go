package fault

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// CoreFailure is one scheduled processor failure: at virtual time At,
// core Core stops executing.
type CoreFailure struct {
	At   sim.Time
	Core int
}

// Plan arms core failures on a system and records their effects. A
// failing core kills every not-yet-finished process bound to one of
// its hardware threads (their goroutines unwind and their joiners are
// woken); the kernel itself keeps running. Survivors that next wait on
// a killed peer — a barrier, a RecvN — deadlock, and the kernel's
// clean error teardown turns that into the deterministic disruption
// signal a controller catches to re-place the remaining work on the
// surviving cores (sched.AllocateExcluding) and warm-start.
type Plan struct {
	sys      *core.System
	down     map[int]bool
	killed   []string
	fired    []CoreFailure
	failover bool
	grace    sim.Time

	// OnFire, when non-nil, is called at the top of every failure event,
	// before any process is killed. The checkpoint layer uses it to log
	// fired failures into its WAL; it must be passive.
	OnFire func(CoreFailure)
}

// ArmCoreFailures schedules the given failures on sys's kernel and
// returns the plan that will record their effects. Call before
// sys.Run; failure times are absolute virtual times.
func ArmCoreFailures(sys *core.System, events ...CoreFailure) *Plan {
	pl := &Plan{sys: sys, down: map[int]bool{}}
	now := sys.K.Now()
	for _, ev := range events {
		ev := ev
		if ev.At < now {
			panic("fault: core failure scheduled in the past")
		}
		sys.K.Schedule(ev.At-now, func() { pl.fail(ev) })
	}
	return pl
}

// EnableFailover switches the plan to fail-over semantics: a firing
// failure marks its core down and is WAL-visible through OnFire and
// the event stream, but instead of killing immediately it opens a
// grace window of the given length — the failure detector's advance
// warning (a correctable-error storm, a thermal trip) before the core
// actually dies. The adaptive controller (internal/adapt) observes
// the fired failure at the next barrier generation and live-migrates
// the core's processes off it; whatever is still bound to the core
// when the grace expires is killed exactly as in fail-stop mode. A
// run that migrates in time loses nothing and reports the fifth
// recovery mode, RecoverMigrate; a run that ignores the warning falls
// back into the ordinary kill/recovery path. Call before any failure
// fires. A grace of 0 means the warning and the kill coincide, which
// still lets pre-armed placements (already off the core) survive.
func (pl *Plan) EnableFailover(grace sim.Time) {
	if grace < 0 {
		panic("fault: negative fail-over grace")
	}
	pl.failover = true
	pl.grace = grace
}

// fail marks the core down and kills its bound processes; in
// fail-over mode the kill is deferred by the grace window instead.
func (pl *Plan) fail(ev CoreFailure) {
	if pl.OnFire != nil {
		pl.OnFire(ev)
	}
	pl.fired = append(pl.fired, ev)
	if pl.down[ev.Core] {
		pl.emitFired(ev, 0)
		return
	}
	pl.down[ev.Core] = true
	if pl.failover {
		pl.emitFired(ev, 0)
		pl.sys.K.Schedule(pl.grace, func() { pl.emitFired(ev, pl.killCore(ev.Core)) })
		return
	}
	pl.emitFired(ev, pl.killCore(ev.Core))
}

// killCore kills every not-yet-finished process still bound to a
// hardware thread of the core, returning how many it killed.
func (pl *Plan) killCore(coreIdx int) int {
	cfg := pl.sys.M.Cfg
	nKilled := 0
	for _, g := range pl.sys.Groups() {
		for _, c := range g.Ctxs() {
			p := c.Proc()
			if p.Done() || p.Killed() {
				continue
			}
			if cfg.CoreOf(c.Thread()) != coreIdx {
				continue
			}
			pl.killed = append(pl.killed, p.Name())
			p.Kill()
			nKilled++
		}
	}
	return nKilled
}

// emitFired publishes a fired failure on the event stream, after its
// effects are applied, so a live consumer sees the disruption the
// moment the simulation does.
func (pl *Plan) emitFired(ev CoreFailure, killed int) {
	if tr := pl.sys.Obs.Tracer(); tr.Streaming() {
		tr.Emit(obs.Event{At: pl.sys.K.Now(), Kind: obs.EvFault,
			Cat: "fault", Name: "core_failure",
			Detail: fmt.Sprintf("core %d killed %d", ev.Core, killed)})
	}
}

// Down returns the set of failed cores (shared map; treat as
// read-only), in the exclusion format sched.AllocateExcluding takes.
func (pl *Plan) Down() map[int]bool { return pl.down }

// DownList returns the failed core indices in ascending order.
func (pl *Plan) DownList() []int {
	out := make([]int, 0, len(pl.down))
	//stamplint:allow maprange: the indices are sorted before being returned
	for c := range pl.down {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// Killed returns the names of the processes the plan killed, in kill
// order (deterministic: group creation order, then member rank).
func (pl *Plan) Killed() []string { return pl.killed }

// Fired returns the failure events that have triggered so far.
func (pl *Plan) Fired() []CoreFailure { return pl.fired }

// RecoveryMode is a controller's decision about how to continue after a
// core-failure disruption.
type RecoveryMode uint8

const (
	// RecoverNone: nothing was disrupted; the run completed.
	RecoverNone RecoveryMode = iota
	// RecoverWarmStart: survivors exist — re-place the remaining work on
	// the surviving cores (sched.AllocateExcluding) and warm-start from
	// the application's current data.
	RecoverWarmStart
	// RecoverRestart: every member was lost and no checkpoint exists —
	// restart the run from scratch, losing all completed work.
	RecoverRestart
	// RecoverRestoreCkpt: every member was lost but a checkpoint exists —
	// restore it and replay, losing only the work since the last
	// checkpoint.
	RecoverRestoreCkpt
	// RecoverMigrate: the failure fired in fail-over mode (EnableFailover)
	// and every threatened process was live-migrated off the core within
	// the grace window (adapt.Controller) — nothing was killed and no
	// work was lost.
	RecoverMigrate
)

// String returns "none", "warm-start", "restart", "restore-ckpt" or
// "migrate".
func (m RecoveryMode) String() string {
	switch m {
	case RecoverNone:
		return "none"
	case RecoverWarmStart:
		return "warm-start"
	case RecoverRestart:
		return "restart"
	case RecoverRestoreCkpt:
		return "restore-ckpt"
	case RecoverMigrate:
		return "migrate"
	}
	return fmt.Sprintf("RecoveryMode(%d)", uint8(m))
}

// Recovery picks the recovery mode for a disrupted group of groupSize
// members given whether a usable checkpoint is available. With
// survivors, warm-start re-placement is always preferred: the
// application's live data is strictly fresher than any checkpoint. Only
// an all-members-lost failure falls back to checkpoint restore, and
// only a total loss with no checkpoint forces a from-scratch restart.
func (pl *Plan) Recovery(groupSize int, snapshotAvailable bool) RecoveryMode {
	if pl.failover && len(pl.fired) > 0 && len(pl.killed) == 0 {
		return RecoverMigrate
	}
	if len(pl.killed) == 0 {
		return RecoverNone
	}
	if len(pl.killed) < groupSize {
		return RecoverWarmStart
	}
	if snapshotAvailable {
		return RecoverRestoreCkpt
	}
	return RecoverRestart
}
