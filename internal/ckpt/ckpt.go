package ckpt

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Controller drives checkpointing for one simulation run. The same
// type serves both directions: a fresh run created with New writes
// checkpoints every N commit generations; a run created with Resume
// restores the latest valid checkpoint and replays from it.
//
// The protocol is cooperative. The application calls Commit from every
// group member at the top of its iteration loop — a point that, for a
// synch_comm application, immediately follows a barrier trip. Commit
// charges each member the checkpoint cost (one inter-processor write
// of its payload: ℓ_e + words·g_sh_e), which parks every member to the
// same instant; the first member to reach that instant captures the
// global state, each member then contributes its own state, and the
// last contribution seals and saves the snapshot. Because the charge
// is uniform across members, the whole downstream schedule translates
// by exactly n_checkpoints·(ℓ_e + words·g_sh_e) ticks relative to a
// checkpoint-free run — the overhead term the E15 experiment measures
// against the §3.1 time formula.
type Controller struct {
	dir   string
	every int
	app   string

	sys *core.System
	inj *fault.Injector
	rec *flightRecorder
	wal *WAL

	resumed       *Snapshot // non-nil on the Resume path
	sysRestored   bool
	groupRestored bool
	replayPlan    *fault.Plan
	replayed      []fault.CoreFailure

	cur     *genBuilder
	written []string
	lastGen int
}

// genBuilder accumulates one generation's member contributions.
type genBuilder struct {
	gen   int
	at    sim.Time
	snap  *Snapshot
	count int
}

// New creates a controller that writes a checkpoint into dir every
// `every` commit generations of a fresh run. Any WAL left by a prior
// run in dir is truncated.
func New(dir string, every int) (*Controller, error) {
	return newController(dir, every, nil)
}

// Resume loads the latest valid checkpoint from dir and returns a
// controller that will restore it into a freshly built system and keep
// checkpointing every `every` generations from there. The WAL is kept:
// a resumed run appends to the original run's failure history.
func Resume(dir string, every int) (*Controller, error) {
	snap, _, err := Latest(dir)
	if err != nil {
		return nil, err
	}
	return newController(dir, every, snap)
}

func newController(dir string, every int, resumed *Snapshot) (*Controller, error) {
	if every < 1 {
		return nil, errors.New("ckpt: checkpoint interval must be >= 1")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	w, err := openWAL(dir, resumed != nil)
	if err != nil {
		return nil, err
	}
	ck := &Controller{dir: dir, every: every, wal: w, resumed: resumed}
	if resumed != nil {
		ck.lastGen = resumed.Generation
	}
	return ck, nil
}

// Close releases the WAL file handle.
func (ck *Controller) Close() error {
	if ck == nil || ck.wal == nil {
		return nil
	}
	return ck.wal.Close()
}

// Attach binds the controller to the system about to run under the
// application name app (used in checkpoint file names). It installs
// the in-flight delivery recorder on the system's network; call before
// any message is sent.
func (ck *Controller) Attach(sys *core.System, app string) {
	ck.sys = sys
	ck.app = app
	ck.rec = &flightRecorder{}
	sys.Net.SetDeliveryRecorder(ck.rec)
}

// SetInjector registers the run's message-fault injector so its PRNG
// position rides in checkpoints (and is restored on resume, replaying
// the same fault schedule).
func (ck *Controller) SetInjector(inj *fault.Injector) {
	if ck == nil {
		return
	}
	ck.inj = inj
	if ck.resumed != nil && ck.resumed.Injector != nil && inj != nil {
		inj.Restore(*ck.resumed.Injector)
	}
}

// Resuming reports whether this controller restores a checkpoint.
func (ck *Controller) Resuming() bool { return ck != nil && ck.resumed != nil }

// ResumedGeneration returns the generation being resumed from, or -1.
func (ck *Controller) ResumedGeneration() int {
	if !ck.Resuming() {
		return -1
	}
	return ck.resumed.Generation
}

// Written returns the paths of the checkpoints written by this run.
func (ck *Controller) Written() []string {
	if ck == nil {
		return nil
	}
	return ck.written
}

// LastGeneration returns the highest generation checkpointed (written
// by this run, or restored into it), 0 if none.
func (ck *Controller) LastGeneration() int {
	if ck == nil {
		return 0
	}
	return ck.lastGen
}

// DecodeMember decodes member i's application payload from the resumed
// snapshot into v.
func (ck *Controller) DecodeMember(i int, v any) error {
	if !ck.Resuming() {
		return errors.New("ckpt: DecodeMember outside a resume")
	}
	if i < 0 || i >= len(ck.resumed.Members) {
		return fmt.Errorf("ckpt: member %d out of range [0,%d)", i, len(ck.resumed.Members))
	}
	return gob.NewDecoder(bytes.NewReader(ck.resumed.Members[i].App)).Decode(v)
}

// RestoreSystem positions a freshly built system at the checkpoint:
// kernel clock/sequence, network counters, memory regions, STM
// variables and injector state, then replays the WAL — re-arming the
// core failures the original run had armed but not yet suffered (see
// ReplayedPlan). Call after the application has allocated its regions
// and transactional variables (so there is state to restore into) and
// before any group is created (the kernel must be pristine).
// Idempotent; a no-op outside a resume.
func (ck *Controller) RestoreSystem(sys *core.System) error {
	if ck == nil || ck.resumed == nil || ck.sysRestored {
		return nil
	}
	ck.sysRestored = true
	s := ck.resumed
	sys.K.Restore(s.VTime, s.Seq, s.Dispatched)
	sys.Net.RestoreState(s.Net)
	if err := sys.Mem.RestoreRegions(s.Regions); err != nil {
		return err
	}
	if s.STM != nil {
		if err := sys.TM.Restore(*s.STM); err != nil {
			return err
		}
	}
	if s.Injector != nil && ck.inj != nil {
		ck.inj.Restore(*s.Injector)
	}
	pl, events, err := ck.replayFailures(sys)
	if err != nil {
		return err
	}
	ck.replayPlan, ck.replayed = pl, events
	return nil
}

// ReplayedPlan returns the fault plan re-armed from the WAL during
// RestoreSystem (nil before restore or outside a resume).
func (ck *Controller) ReplayedPlan() *fault.Plan {
	if ck == nil {
		return nil
	}
	return ck.replayPlan
}

// ReplayedFailures returns the failures re-armed from the WAL.
func (ck *Controller) ReplayedFailures() []fault.CoreFailure {
	if ck == nil {
		return nil
	}
	return ck.replayed
}

// GroupOptions returns the spawn options a resuming application must
// pass to NewGroupOpts: the recorded start order, so members activate
// in the original run's wake order. Empty outside a resume.
func (ck *Controller) GroupOptions() []core.GroupOption {
	if ck == nil || ck.resumed == nil || len(ck.resumed.StartOrder) == 0 {
		return nil
	}
	return []core.GroupOption{core.WithStartOrder(ck.resumed.StartOrder)}
}

// RestoreGroup stages the checkpointed member state onto a freshly
// created group (barrier generation, per-member charge state and
// mailboxes) and re-schedules the checkpoint's in-flight messages in
// their original departure order. Call between NewGroupOpts and the
// system run. Idempotent; a no-op outside a resume.
func (ck *Controller) RestoreGroup(g *core.Group) error {
	if ck == nil || ck.resumed == nil || ck.groupRestored {
		return nil
	}
	ck.groupRestored = true
	s := ck.resumed
	if g.Size() != s.N {
		return fmt.Errorf("ckpt: group size %d, checkpoint has %d members", g.Size(), s.N)
	}
	g.RestoreBarrierGeneration(s.BarrierGen)
	for _, ms := range s.Members {
		g.RestoreMember(ms.Index, ms.Ctx)
		g.Ctxs()[ms.Index].Endpoint().RestoreInbox(ms.Inbox)
	}
	net := ck.sys.Net
	for _, f := range s.InFlight {
		net.ScheduleDelivery(net.Endpoint(f.Dst), f.Msg, f.Arrive)
	}
	return nil
}

// Commit is the application's checkpoint hook, called by every group
// member at the top of its iteration loop with the member's loop
// state. On non-checkpoint generations it does nothing and charges
// nothing. On checkpoint generations (gen > 0, gen divisible by the
// interval) it charges the member ℓ_e + words·g_sh_e ticks — the cost
// of writing the payload through inter-processor shared storage — and
// contributes the member's state to the generation's snapshot; the
// last contribution saves the checkpoint. On a resumed run,
// generations up to the resume point are skipped entirely (the member
// is re-entering its loop at the recorded position; the charge was
// already paid inside the restored clock).
//
// Commit must be reached by all members at the same virtual instant —
// true for any synch_comm loop whose iterations end in a barrier —
// and panics otherwise: a non-uniform commit is not barrier-consistent
// and the snapshot would interleave with live state changes.
func (ck *Controller) Commit(ctx *core.Ctx, gen, words int, state any) {
	if ck == nil {
		return
	}
	if gen <= 0 || gen%ck.every != 0 {
		return
	}
	if ck.resumed != nil && gen <= ck.resumed.Generation {
		return
	}
	if words < 0 {
		panic("ckpt: negative payload size")
	}
	c := ctx.System().M.Cfg.Costs
	ctx.HoldCost(float64(c.EllE) + float64(words)*c.GShE)
	ck.contribute(ctx, gen, state)
}

// contribute records one member's state into the current generation's
// snapshot, sealing and saving it on the last contribution.
func (ck *Controller) contribute(ctx *core.Ctx, gen int, state any) {
	g := ctx.Group()
	now := ctx.Now()
	if ck.cur != nil && ck.cur.gen != gen {
		// A generation left incomplete (a member was killed between the
		// barrier and its commit): abandon it — a partial snapshot must
		// never be saved — and start fresh.
		ck.cur = nil
	}
	if ck.cur == nil {
		ck.beginGen(ctx, gen, now)
	}
	b := ck.cur
	if b.at != now {
		panic(fmt.Sprintf("ckpt: commit of generation %d at t=%d is not barrier-consistent (first member committed at t=%d)", gen, now, b.at))
	}
	var buf bytes.Buffer
	if state != nil {
		if err := gob.NewEncoder(&buf).Encode(state); err != nil {
			panic(fmt.Sprintf("ckpt: encode member %d state: %v", ctx.Index(), err))
		}
	}
	b.snap.Members[ctx.Index()] = MemberState{
		Index: ctx.Index(),
		Ctx:   ctx.Snapshot(),
		Inbox: ctx.Endpoint().SnapshotInbox(),
		App:   buf.Bytes(),
	}
	b.snap.StartOrder = append(b.snap.StartOrder, ctx.Index())
	b.count++
	if b.count == g.Size() {
		ck.cur = nil
		path, err := Save(ck.dir, b.snap)
		if err != nil {
			panic(fmt.Sprintf("ckpt: %v", err))
		}
		ck.written = append(ck.written, path)
		ck.lastGen = b.snap.Generation
		// The snapshot is durable: publish the commit on the event
		// stream (generation only — the path is host state and would
		// break the stream's determinism).
		if tr := ctx.System().Obs.Tracer(); tr.Streaming() {
			tr.Emit(obs.Event{At: now, Kind: obs.EvCkpt, Proc: ctx.Proc().Name(),
				Cat: "ckpt", Name: "commit", Gen: int64(b.snap.Generation),
				Detail: fmt.Sprintf("members %d vtime %d", g.Size(), now)})
		}
	}
}

// beginGen captures the global simulation state at the consistency
// instant, on the first member contribution of a generation. Globals
// are safe to capture here: every other member is parked on its own
// commit wake at this same instant, so nothing can mutate shared state
// between the first and last contribution.
func (ck *Controller) beginGen(ctx *core.Ctx, gen int, now sim.Time) {
	sys := ctx.System()
	g := ctx.Group()
	snap := &Snapshot{
		App:        ck.app,
		Generation: gen,
		BarrierGen: g.BarrierGeneration(),
		VTime:      now,
		Seq:        sys.K.Seq(),
		Dispatched: sys.K.Dispatched(),
		GroupName:  g.Name(),
		N:          g.Size(),
		Members:    make([]MemberState, g.Size()),
		Net:        sys.Net.State(),
		Regions:    sys.Mem.SnapshotRegions(),
	}
	for _, rf := range ck.rec.active {
		snap.InFlight = append(snap.InFlight, rf.f)
	}
	st, err := sys.TM.Snapshot()
	if err != nil {
		panic(fmt.Sprintf("ckpt: %v", err))
	}
	snap.STM = &st
	if ck.inj != nil {
		is := ck.inj.State()
		snap.Injector = &is
	}
	ck.cur = &genBuilder{gen: gen, at: now, snap: snap}
}

// ArmCoreFailures is fault.ArmCoreFailures with WAL logging: each
// armed failure is recorded before it can fire, and each firing is
// recorded by the plan's OnFire hook. A resumed run re-arms the
// pending set via ReplayFailures instead.
func (ck *Controller) ArmCoreFailures(sys *core.System, events ...fault.CoreFailure) (*fault.Plan, error) {
	for _, ev := range events {
		if err := ck.wal.Append(Record{Kind: "arm", At: int64(ev.At), Core: ev.Core}); err != nil {
			return nil, err
		}
	}
	pl := fault.ArmCoreFailures(sys, events...)
	ck.logFirings(pl)
	return pl, nil
}

// replayFailures re-arms, on a restored system, the failures the
// original run had armed but not yet fired (the WAL's arm multiset
// minus its fired multiset). Re-armed events are NOT logged as "arm"
// again — they already are. Pending failures scheduled before the
// restored clock are dropped: the checkpoint being restored postdates
// them, so on the original timeline they can no longer occur. Returns
// the plan and the re-armed events.
func (ck *Controller) replayFailures(sys *core.System) (*fault.Plan, []fault.CoreFailure, error) {
	recs, err := readRecords(ck.dir)
	if err != nil {
		return nil, nil, err
	}
	type key struct {
		at   int64
		core int
	}
	pending := map[key]int{}
	var order []fault.CoreFailure
	for _, r := range recs {
		k := key{r.At, r.Core}
		switch r.Kind {
		case "arm":
			if pending[k] == 0 {
				order = append(order, fault.CoreFailure{At: sim.Time(r.At), Core: r.Core})
			}
			pending[k]++
		case "fired":
			pending[k]--
		}
	}
	now := sys.K.Now()
	var events []fault.CoreFailure
	for _, ev := range order {
		k := key{int64(ev.At), ev.Core}
		for i := 0; i < pending[k]; i++ {
			if ev.At >= now {
				events = append(events, ev)
			}
		}
		pending[k] = 0
	}
	pl := fault.ArmCoreFailures(sys, events...)
	ck.logFirings(pl)
	return pl, events, nil
}

// logFirings installs the WAL "fired" hook on a plan.
func (ck *Controller) logFirings(pl *fault.Plan) {
	pl.OnFire = func(ev fault.CoreFailure) {
		if err := ck.wal.Append(Record{Kind: "fired", At: int64(ev.At), Core: ev.Core}); err != nil {
			panic(fmt.Sprintf("ckpt: %v", err))
		}
	}
}
