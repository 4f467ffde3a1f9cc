// Package stm implements the transactional-execution substrate of the
// STAMP model (trans_exec): an object-granular software transactional
// memory in the style of DSTM (Herlihy et al., cited as [13] in the
// paper), with optimistic execution, eager write ownership, lazy read
// validation, pluggable contention management (Scherer & Scott, [23])
// and closed-nested subtransactions (the banking example's withdraw/
// deposit). Aborts are rollbacks: they are counted into the same κ
// parameter the paper's cost formulas use, and the speculative work of
// an aborted attempt dissipates real (model) time and energy.
package stm

import (
	"errors"
	"fmt"

	"repro/internal/energy"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Agent is the executing process as the STM sees it (the STAMP core's
// execution context implements it).
type Agent interface {
	Proc() *sim.Proc
	Thread() machine.ThreadID
	Counters() *energy.Counters
	// ChargeCost charges virtual time with deterministic per-category
	// fractional carry, attributing materialized ticks to cat.
	ChargeCost(cat obs.Category, ticks float64)
	// Profile returns the process's virtual-time profile sink, or nil
	// when profiling is disabled (the nil profile is a no-op).
	Profile() *obs.ProcProfile
}

// STM is the transactional memory of one simulated machine. Transactional
// data lives at chip level, so every access is charged at inter-processor
// shared-memory cost (ℓ_e, g_sh_e).
type STM struct {
	m       *machine.Machine
	Manager ContentionManager

	birthSeq uint64
	commits  int64
	aborts   int64

	// vars registers every TVar in allocation order so checkpoints can
	// enumerate them without knowing element types.
	vars []ckptVar

	// commitWaiters holds processes blocked in a Retry; every commit
	// broadcasts them awake.
	commitWaiters sim.WaitQueue

	probe Probe
}

// Probe observes committed transactions for happens-before tracking:
// DSTM-style commits are globally ordered (validation plus eager write
// ownership serialize them), so each commit both acquires and releases
// the STM-wide order. The race detector (internal/racedet) is the one
// implementation; it must be passive (no holds, no blocking).
type Probe interface {
	// TxCommit fires when p commits a top-level transaction, after the
	// writes have been published.
	TxCommit(p *sim.Proc)
}

// SetProbe attaches a commit probe (nil detaches). Attach before the
// simulation runs.
func (s *STM) SetProbe(pr Probe) { s.probe = pr }

// New creates an STM over machine m with contention manager mgr
// (Passive if nil).
func New(m *machine.Machine, mgr ContentionManager) *STM {
	if mgr == nil {
		mgr = Passive{}
	}
	return &STM{m: m, Manager: mgr}
}

// Commits returns the number of committed top-level transactions.
func (s *STM) Commits() int64 { return s.commits }

// Aborts returns the number of aborted attempts (rollbacks), the
// measured contribution to the model's κ.
func (s *STM) Aborts() int64 { return s.aborts }

// AbortRate returns aborts / (aborts + commits), or 0 with no traffic.
func (s *STM) AbortRate() float64 {
	tot := s.commits + s.aborts
	if tot == 0 {
		return 0
	}
	return float64(s.aborts) / float64(tot)
}

// tvar is the type-erased view of a TVar that transactions manipulate.
type tvar interface {
	ver() uint64
	ownerTx() *Tx
	// releaseFrom discards tx's buffered write and clears ownership;
	// the committed value is untouched.
	releaseFrom(tx *Tx)
	// commitFrom publishes tx's buffered write, bumps the version and
	// clears ownership.
	commitFrom(tx *Tx)
	// reassign transfers ownership (nested commit: child → parent).
	reassign(from, to *Tx)
}

// TVar is a transactional variable of type T.
type TVar[T any] struct {
	s       *STM
	name    string
	val     T // committed value
	pending T // owner's buffered write
	version uint64
	owner   *Tx
}

// NewTVar allocates a transactional variable with an initial committed
// value.
func NewTVar[T any](s *STM, name string, init T) *TVar[T] {
	v := &TVar[T]{s: s, name: name, val: init}
	s.vars = append(s.vars, v)
	return v
}

// ckptVar is the type-erased checkpoint view of a TVar.
type ckptVar interface {
	snapshotVar() TVarBlob
	restoreVar(TVarBlob) error
}

// TVarBlob is one transactional variable's committed state in
// serializable form. Pending (uncommitted) writes are never captured:
// checkpoints are taken at barrier-consistent instants, where no
// transaction is in flight.
type TVarBlob struct {
	Name    string
	Val     any
	Version uint64
}

// State is the STM's full checkpointable state.
type State struct {
	BirthSeq uint64
	Commits  int64
	Aborts   int64
	Vars     []TVarBlob
}

// Snapshot captures the STM state. It fails if any variable is owned by
// an active transaction — a checkpoint must only be taken at a quiescent
// instant.
func (s *STM) Snapshot() (State, error) {
	st := State{BirthSeq: s.birthSeq, Commits: s.commits, Aborts: s.aborts}
	for _, v := range s.vars {
		b := v.snapshotVar()
		if b.Val == nil {
			return State{}, fmt.Errorf("stm: snapshot of %s with a transaction in flight", b.Name)
		}
		st.Vars = append(st.Vars, b)
	}
	return st, nil
}

// Restore overwrites STM state from a checkpoint. The restoring STM
// must have allocated the same variables in the same order (same names
// and element types) as the checkpointed one.
func (s *STM) Restore(st State) error {
	if len(st.Vars) != len(s.vars) {
		return fmt.Errorf("stm: restore with %d vars, have %d", len(st.Vars), len(s.vars))
	}
	for i, b := range st.Vars {
		if err := s.vars[i].restoreVar(b); err != nil {
			return err
		}
	}
	s.birthSeq, s.commits, s.aborts = st.BirthSeq, st.Commits, st.Aborts
	return nil
}

func (v *TVar[T]) snapshotVar() TVarBlob {
	if v.owner != nil {
		return TVarBlob{Name: v.name, Val: nil, Version: v.version}
	}
	return TVarBlob{Name: v.name, Val: v.val, Version: v.version}
}

func (v *TVar[T]) restoreVar(b TVarBlob) error {
	if b.Name != v.name {
		return fmt.Errorf("stm: restore var %q into %q", b.Name, v.name)
	}
	val, ok := b.Val.(T)
	if !ok {
		return fmt.Errorf("stm: var %q: blob holds %T, want %T", v.name, b.Val, v.val)
	}
	if v.owner != nil {
		return fmt.Errorf("stm: restore of %q with a transaction in flight", v.name)
	}
	v.val = val
	v.version = b.Version
	return nil
}

// Value returns the committed value without simulation cost (for
// initialization, invariant checks and tests).
func (v *TVar[T]) Value() T { return v.val }

// SetValue overwrites the committed value without cost (initialization
// only; must not race with active transactions).
func (v *TVar[T]) SetValue(x T) { v.val = x }

// Version returns the commit version, which counts successful
// transactional writes.
func (v *TVar[T]) Version() uint64 { return v.version }

func (v *TVar[T]) ver() uint64  { return v.version }
func (v *TVar[T]) ownerTx() *Tx { return v.owner }

func (v *TVar[T]) releaseFrom(tx *Tx) {
	if v.owner == tx {
		var zero T
		v.pending = zero
		v.owner = nil
	}
}

func (v *TVar[T]) commitFrom(tx *Tx) {
	if v.owner != tx {
		panic(fmt.Sprintf("stm: commit of %s by non-owner", v.name))
	}
	v.val = v.pending
	var zero T
	v.pending = zero
	v.version++
	v.owner = nil
}

func (v *TVar[T]) reassign(from, to *Tx) {
	if v.owner == from {
		v.owner = to
	}
}

// txState tracks a transaction through its lifetime.
type txState uint8

const (
	txActive txState = iota
	txAborted
	txCommitted
)

// errAbort is the panic sentinel used to unwind an aborted transaction
// body back to its retry loop.
var errAbort = errors.New("stm: transaction aborted")

// ErrNotAtomic is returned when a transactional op runs outside
// Atomically.
var ErrNotAtomic = errors.New("stm: operation outside a transaction")

// Tx is one transaction attempt. Get/Set/Nested must only be called
// from inside the body passed to Atomically (same simulated process).
type Tx struct {
	s      *STM
	agent  Agent
	parent *Tx // nil for top level
	state  txState

	birth   uint64 // age for Timestamp manager (inherited by children)
	karma   int64  // ops performed, for the Karma manager
	attempt int

	readSet map[tvar]uint64 // version observed at first read
	// readOrder lists the read-set vars in first-read order: validate
	// charges one access per entry and stops at the first conflict, so
	// iterating the map directly would make the charge count — and with
	// it virtual time — depend on Go's randomized map order.
	readOrder []tvar
	owned     []tvar // vars this tx acquired (in order)
	// savedPending remembers an ancestor's buffered value that this
	// (nested) tx overwrote, for restoration on child abort.
	savedPending map[tvar]func()
}

// newTx creates an attempt. Top-level retries of one logical operation
// share a birth stamp (so the Timestamp/Greedy manager's oldest-wins
// guarantee holds across retries) and carry the karma accumulated by
// aborted attempts (so the Karma manager's priority actually grows with
// wasted work, per Scherer & Scott).
func (s *STM) newTx(a Agent, parent *Tx, attempt int, birth uint64, karma int64) *Tx {
	tx := &Tx{
		s:       s,
		agent:   a,
		parent:  parent,
		attempt: attempt,
		readSet: make(map[tvar]uint64),
	}
	if parent != nil {
		tx.birth = parent.birth
		tx.karma = parent.karma
	} else {
		tx.birth = birth
		tx.karma = karma
	}
	return tx
}

// nextBirth allocates an age stamp for a new logical transaction.
func (s *STM) nextBirth() uint64 {
	s.birthSeq++
	return s.birthSeq
}

// Attempt returns the 1-based retry attempt of this transaction.
func (tx *Tx) Attempt() int { return tx.attempt }

// Birth returns the transaction's age stamp (smaller = older).
func (tx *Tx) Birth() uint64 { return tx.birth }

// Karma returns the work-based priority used by the Karma manager.
func (tx *Tx) Karma() int64 { return tx.karma }

// chainAborted reports whether this tx or any ancestor has been
// aborted.
func (tx *Tx) chainAborted() bool {
	for t := tx; t != nil; t = t.parent {
		if t.state == txAborted {
			return true
		}
	}
	return false
}

// checkAlive unwinds if a contention manager has aborted this tx (or an
// ancestor) while it was running (zombie execution).
func (tx *Tx) checkAlive() {
	if tx.chainAborted() {
		panic(errAbort)
	}
}

// chargeAccess charges one transactional memory access (inter-processor
// class) and bumps karma.
func (tx *Tx) chargeAccess(write bool) {
	c := tx.s.m.Cfg.Costs
	p := tx.agent.Proc()
	t0 := p.Now()
	p.Hold(c.EllE)
	tx.agent.Profile().Charge(obs.CatMemWait, p.Now()-t0)
	tx.agent.ChargeCost(obs.CatMemWait, c.GShE)
	if write {
		tx.agent.Counters().WritesInter++
	} else {
		tx.agent.Counters().ReadsInter++
	}
	tx.karma++
}

// isAncestorOwner reports whether v's owner is tx or one of its
// ancestors, returning that owner.
func (tx *Tx) isAncestorOwner(v tvar) (*Tx, bool) {
	o := v.ownerTx()
	if o == nil {
		return nil, false
	}
	for t := tx; t != nil; t = t.parent {
		if t == o {
			return o, true
		}
	}
	return nil, false
}

// resolveConflict arbitrates between tx (attacker) and the active owner
// of a variable (victim). Either the victim is aborted and tx proceeds,
// or tx aborts itself (unwinding via panic).
func (tx *Tx) resolveConflict(victim *Tx) {
	if tx.s.Manager.Resolve(tx, victim) {
		victim.forceAbort()
		return
	}
	tx.abortSelf()
}

// forceAbort marks the victim aborted and releases everything it owns,
// so the attacker can proceed immediately. The victim's goroutine will
// unwind at its next transactional operation.
func (tx *Tx) forceAbort() {
	if tx.state != txActive {
		return
	}
	tx.state = txAborted
	tx.releaseAll()
}

// abortSelf unwinds the current attempt. The entire chain up to the
// top-level transaction is rolled back: retrying only an inner child
// while ancestors keep their acquisitions would preserve wait-for
// cycles (deadlock disguised as livelock), so conflicts always restart
// the whole transaction.
func (tx *Tx) abortSelf() {
	for t := tx; t != nil; t = t.parent {
		t.state = txAborted
		t.releaseAll()
	}
	panic(errAbort)
}

// releaseAll rolls back every acquisition of this tx: restore ancestor
// buffers it overwrote and free vars it acquired.
func (tx *Tx) releaseAll() {
	//stamplint:allow maprange: each restore closure touches only its own tvar, so order is immaterial
	for v, restore := range tx.savedPending {
		_ = v
		restore()
	}
	tx.savedPending = nil
	for _, v := range tx.owned {
		v.releaseFrom(tx)
	}
	tx.owned = nil
}

// Get reads v inside tx.
func (v *TVar[T]) Get(tx *Tx) T {
	if tx == nil {
		panic(ErrNotAtomic)
	}
	tx.checkAlive()
	tx.chargeAccess(false)
	// The access charge yields virtual time; a contention manager may
	// have force-aborted us meanwhile. Re-check before acting, or a
	// zombie could resolve conflicts against innocent victims.
	tx.checkAlive()
	if owner, ok := tx.isAncestorOwner(v); ok {
		_ = owner
		return v.pending // our own (or an ancestor's) buffered write
	}
	if o := v.owner; o != nil {
		tx.resolveConflict(o) // returns only if victim was aborted
	}
	if _, seen := tx.readSet[v]; !seen {
		tx.readSet[v] = v.version
		tx.readOrder = append(tx.readOrder, v)
	}
	return v.val
}

// Set writes v inside tx (buffered until commit).
func (v *TVar[T]) Set(tx *Tx, x T) {
	if tx == nil {
		panic(ErrNotAtomic)
	}
	tx.checkAlive()
	tx.chargeAccess(true)
	// Re-check after the yield: acquiring ownership as a zombie (after
	// a force-abort already released this attempt) would leak the
	// variable to a dead transaction forever.
	tx.checkAlive()
	if owner, ok := tx.isAncestorOwner(v); ok {
		if owner != tx {
			// Overwriting an ancestor's buffer: remember the old value
			// so a child abort restores it.
			if tx.savedPending == nil {
				tx.savedPending = make(map[tvar]func())
			}
			if _, dup := tx.savedPending[v]; !dup {
				old := v.pending
				tx.savedPending[v] = func() { v.pending = old }
			}
		}
		v.pending = x
		return
	}
	if o := v.owner; o != nil {
		tx.resolveConflict(o)
	}
	// Acquire fresh ownership. Record the pre-write version so commit
	// validation catches a racing committed write between our earlier
	// read (if any) and this acquisition.
	if _, seen := tx.readSet[v]; !seen {
		tx.readSet[v] = v.version
		tx.readOrder = append(tx.readOrder, v)
	}
	v.owner = tx
	v.pending = x
	tx.owned = append(tx.owned, v)
}

// Modify applies f to the current value of v inside tx.
func (v *TVar[T]) Modify(tx *Tx, f func(T) T) {
	v.Set(tx, f(v.Get(tx)))
}

// validate charges one access per read-set entry and checks that no
// observed version moved. Returns false on conflict. Iteration follows
// first-read order (readOrder), not map order: the early return on
// conflict means the number of accesses charged depends on where the
// moved version sits in the iteration, and that must be deterministic.
func (tx *Tx) validate() bool {
	for _, v := range tx.readOrder {
		ver := tx.readSet[v]
		tx.chargeAccess(false)
		if v.ver() != ver {
			return false
		}
	}
	return true
}

// commitTop publishes a top-level transaction. It returns false on
// validation failure, or when a contention manager force-aborted the
// transaction mid-validate; runBody then rolls it back.
func (tx *Tx) commitTop() bool {
	// Validation charges time (yields), so a contention manager may
	// have force-aborted us mid-validate; re-check before publishing.
	if !tx.validate() || tx.state == txAborted {
		return false
	}
	for _, v := range tx.owned {
		v.commitFrom(tx)
	}
	tx.owned = nil
	tx.savedPending = nil
	tx.state = txCommitted
	return true
}

// commitNested merges a child into its parent: read set entries move up,
// owned vars are reassigned, saved ancestor buffers are kept (the new
// values stand). It returns false, for runBody to roll back, when the
// child fails validation or an ancestor was force-aborted.
func (tx *Tx) commitNested() bool {
	// Merging into a force-aborted ancestor would leak ownership: the
	// ancestor has already released everything it will ever release,
	// so variables reassigned to it now would stay owned by a dead
	// transaction forever. Check the whole chain, not just this tx. A
	// nested commit validates its own read set so conflicts surface as
	// early as the child boundary; validation yields, so the chain is
	// checked again before merging.
	if tx.chainAborted() || !tx.validate() || tx.chainAborted() {
		return false
	}
	p := tx.parent
	// Merge in the child's first-read order so the parent's eventual
	// validate iterates deterministically.
	for _, v := range tx.readOrder {
		if _, seen := p.readSet[v]; !seen {
			p.readSet[v] = tx.readSet[v]
			p.readOrder = append(p.readOrder, v)
		}
	}
	for _, v := range tx.owned {
		v.reassign(tx, p)
		p.owned = append(p.owned, v)
	}
	tx.owned = nil
	tx.savedPending = nil
	p.karma = tx.karma
	tx.state = txCommitted
	return true
}

// Outcome of one Atomically call.
type Outcome struct {
	Committed bool
	Attempts  int      // total attempts including the successful one
	Err       error    // user error returned by the body, if any
	WastedOps int64    // karma accumulated by rolled-back attempts
	Backoff   sim.Time // total backoff wait
}

// Atomically runs body as a transaction on behalf of agent a, retrying
// aborted attempts with the manager's backoff until commit, or until
// body returns a non-nil error (a user-level abort: the attempt is
// rolled back and the error returned without retry). A body that calls
// tx.Retry() rolls back and blocks until another transaction commits,
// then runs again.
//
// All retries share one birth stamp and accumulate karma, and a small
// deterministic jitter derived from the birth is added to the backoff
// so that symmetric transactions cannot re-collide in lockstep forever
// (the deterministic simulator would otherwise replay identical
// conflict schedules indefinitely).
func (s *STM) Atomically(a Agent, body func(tx *Tx) error) (Outcome, error) {
	return s.AtomicallyOrElse(a, body, nil)
}

// AtomicallyOrElse is Atomically with an alternative: if first calls
// Retry, its effects roll back and second (when non-nil) runs in the
// same attempt instead. If every branch retries, the process blocks
// until a commit and the attempt re-runs from first. A user error from
// either branch aborts without retry.
func (s *STM) AtomicallyOrElse(a Agent, first, second func(tx *Tx) error) (Outcome, error) {
	var out Outcome
	birth := s.nextBirth()
	var karma int64
	p, prof := a.Proc(), a.Profile()
	// run executes one branch as a fresh top-level transaction. A
	// rolled-back run is retried work: its whole elapsed time folds
	// into CatTxRetry, and an aborted or retried one carries its karma
	// into the next run.
	run := func(body func(*Tx) error) (result, error) {
		snap, t0 := prof.Snapshot(), p.Now()
		tx := s.newTx(a, nil, out.Attempts, birth, karma)
		res, err := runBody(tx, body)
		if res == resCommit {
			return res, nil
		}
		prof.FoldSince(snap, p.Now()-t0, obs.CatTxRetry)
		if res != resUserAbort {
			out.WastedOps += tx.karma - karma
			karma = tx.karma
		}
		return res, err
	}
	for attempt := 1; ; attempt++ {
		out.Attempts = attempt
		res, err := run(first)
		if res == resRetry && second != nil {
			res, err = run(second)
		}
		switch res {
		case resCommit:
			s.commits++
			a.Counters().TxCommits++
			if s.probe != nil {
				s.probe.TxCommit(p)
			}
			s.wakeCommitWaiters()
			out.Committed = true
			return out, nil
		case resUserAbort:
			out.Err = err
			return out, err
		}
		s.aborts++
		a.Counters().TxAborts++
		if res == resRetry {
			// Block until some transaction commits, then re-run.
			before := p.Now()
			s.commitWaiters.Wait(p)
			a.Counters().QueueWait += p.Now() - before
			prof.Charge(obs.CatTxRetry, p.Now()-before)
			continue
		}
		wait := s.Manager.Backoff(attempt) + backoffJitter(birth, attempt)
		if wait > 0 {
			out.Backoff += wait
			p.Hold(wait)
			prof.Charge(obs.CatTxRetry, wait)
		}
	}
}

// backoffJitter returns a deterministic 0–4 tick symmetry breaker.
func backoffJitter(birth uint64, attempt int) sim.Time {
	h := (birth*2654435761 + uint64(attempt)*40503) % 5
	return sim.Time(h)
}

// Nested runs body as a closed-nested subtransaction of tx. A non-nil
// body error rolls back the child only and is returned (the parent
// continues — this is the paper's "cmit = false" signal). A system
// abort of the child (conflict, force-abort, failed validation)
// restarts the whole top-level transaction: retrying just the child
// while ancestors keep their acquisitions would preserve wait-for
// cycles between transactions. A Retry in the child rolls the child
// back and retries the whole transaction the same way.
func (tx *Tx) Nested(body func(child *Tx) error) error {
	if tx == nil {
		panic(ErrNotAtomic)
	}
	tx.checkAlive()
	child := tx.s.newTx(tx.agent, tx, 1, 0, 0)
	switch res, err := runBody(child, body); res {
	case resAbort:
		child.abortSelf() // aborts the whole chain, unwinds to the top
	case resRetry:
		panic(errRetry) // the child has released its acquisitions
	case resUserAbort:
		return err
	}
	return nil
}

// result is how one run of a transaction body ended.
type result uint8

const (
	resCommit    result = iota // body returned nil and tx committed (into its parent when nested)
	resUserAbort               // body returned an error; rolled back, not retried
	resAbort                   // conflict, force-abort or failed validation; rolled back
	resRetry                   // body called Retry; rolled back
)

// runBody runs body in tx, then commits tx or rolls it back, and
// reports how the run ended. A force-abort voids the run whatever the
// body returned or signalled: a zombie's error or Retry may rest on
// inconsistent reads.
func runBody(tx *Tx, body func(*Tx) error) (result, error) {
	res, err := unwind(tx, body)
	if tx.state == txAborted {
		res = resAbort
	}
	if res == resCommit && !tx.commit() {
		res = resAbort
	}
	if res != resCommit {
		// Force-aborted runs release again here, in case an in-flight
		// operation acquired anything after the force-abort's release
		// (releaseAll is idempotent).
		tx.state = txAborted
		tx.releaseAll()
	}
	return res, err
}

// unwind calls body, turning the abort and retry unwinds into results;
// any other panic propagates.
func unwind(tx *Tx, body func(*Tx) error) (res result, err error) {
	defer func() {
		if r := recover(); r != nil {
			switch r {
			case errAbort:
				res = resAbort
			case errRetry:
				res = resRetry
			default:
				panic(r)
			}
		}
	}()
	if err = body(tx); err != nil {
		return resUserAbort, err
	}
	return resCommit, nil
}

// commit publishes a top-level tx or merges a nested one into its
// parent.
func (tx *Tx) commit() bool {
	if tx.parent == nil {
		return tx.commitTop()
	}
	return tx.commitNested()
}
