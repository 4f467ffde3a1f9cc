// Package airline implements the paper's airline reservation example
// (§4): reserve(from, to, sect1, sect2) with attributes [inter_proc,
// trans_exec, async_comm]. The three leg reservations run as
// independent transactions on inter-processor threads; a decision
// procedure then commits the itinerary when all legs booked, reports
// failure when none did, and — the paper's "flexibility of optimistic
// transactional execution" — keeps partially booked itineraries when
// only some legs committed. A Strict policy (one atomic transaction
// over all three legs) is provided for comparison.
package airline

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/stm"
	"repro/internal/workload"
)

// DefaultAttrs is the paper's attribute set for the airline example.
var DefaultAttrs = core.Attrs{Dist: core.InterProc, Exec: core.TransExec, Comm: core.AsyncComm}

// ErrFull is the user-level abort of a leg reservation on a full leg.
var ErrFull = errors.New("airline: leg is full")

// Policy selects the commit decision of reserve.
type Policy int

const (
	// Partial is the paper's decision procedure: all → success; none →
	// failure; some → keep the committed legs ("the committed leg is
	// not full").
	Partial Policy = iota
	// Strict books the three legs in a single atomic transaction:
	// any full leg rolls the whole itinerary back.
	Strict
)

// String returns "partial" or "strict".
func (p Policy) String() string {
	if p == Partial {
		return "partial"
	}
	return "strict"
}

// PolicyByName returns the policy whose String is name.
func PolicyByName(name string) (Policy, error) {
	for _, p := range []Policy{Partial, Strict} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (want partial | strict)", name)
}

// Desk is the shared reservation state: seats remaining per leg.
type Desk struct {
	wl   workload.Airline
	legs []*stm.TVar[int64]
}

// NewDesk allocates the leg seat counters.
func NewDesk(tm *stm.STM, wl workload.Airline) *Desk {
	d := &Desk{wl: wl, legs: make([]*stm.TVar[int64], wl.NumLegs())}
	for i := range d.legs {
		d.legs[i] = stm.NewTVar(tm, fmt.Sprintf("leg/%d", i), wl.SeatsPerLeg)
	}
	return d
}

// SeatsLeft returns the remaining seats on leg (src, dst), cost-free.
func (d *Desk) SeatsLeft(src, dst int) int64 {
	return d.legs[d.wl.LegIndex(src, dst)].Value()
}

// SeatsBooked returns total seats booked across all legs, cost-free.
func (d *Desk) SeatsBooked() int64 {
	var booked int64
	for _, l := range d.legs {
		booked += d.wl.SeatsPerLeg - l.Value()
	}
	return booked
}

// rsrv books one seat on leg (src, dst) as its own transaction,
// returning whether it committed (the paper's cmit flag).
func (d *Desk) rsrv(ctx *core.Ctx, src, dst int) (bool, error) {
	_, err := ctx.Atomically(func(tx *stm.Tx) error {
		leg := d.legs[d.wl.LegIndex(src, dst)]
		seats := leg.Get(tx)
		if seats <= 0 {
			return ErrFull
		}
		leg.Set(tx, seats-1)
		return nil
	})
	if err == nil {
		return true, nil
	}
	if errors.Is(err, ErrFull) {
		return false, nil
	}
	return false, err
}

// Verdict is the decision of one reserve call.
type Verdict int

const (
	// Failed: no leg committed.
	Failed Verdict = iota
	// PartialSuccess: some but not all legs committed and were kept.
	PartialSuccess
	// Success: all legs committed.
	Success
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Success:
		return "success"
	case PartialSuccess:
		return "partial"
	}
	return "failed"
}

// Reserve runs the paper's reserve(from, to, sect1, sect2). Under
// Partial, the three leg subtransactions are executed by a nested
// inter-processor STAMP group (the paper's "subtransactions of reserve
// can be executed as inter-processor threads") and the decision
// procedure is applied to their commit flags. Under Strict, the three
// legs book inside one atomic transaction.
func Reserve(ctx *core.Ctx, d *Desk, it workload.Itinerary, policy Policy) (Verdict, int, error) {
	legs := it.Legs()
	switch policy {
	case Strict:
		_, err := ctx.Atomically(func(tx *stm.Tx) error {
			for _, leg := range legs {
				v := d.legs[d.wl.LegIndex(leg[0], leg[1])]
				seats := v.Get(tx)
				if seats <= 0 {
					return ErrFull
				}
				v.Set(tx, seats-1)
			}
			return nil
		})
		if err == nil {
			return Success, 3, nil
		}
		if errors.Is(err, ErrFull) {
			return Failed, 0, nil
		}
		return Failed, 0, err

	case Partial:
		cmit := make([]bool, 3)
		errs := make([]error, 3)
		name := fmt.Sprintf("%s/rsrv", ctx.Proc().Name())
		attrs := core.Attrs{Dist: core.InterProc, Exec: core.TransExec, Comm: core.AsyncComm}
		sub := ctx.System().NewGroup(name, attrs, 3, func(sc *core.Ctx) {
			leg := legs[sc.Index()]
			cmit[sc.Index()], errs[sc.Index()] = d.rsrv(sc, leg[0], leg[1])
		})
		sub.Await(ctx)
		committed := 0
		for i := range cmit {
			if cmit[i] {
				committed++
			}
		}
		// Count committed legs before error handling so booked seats
		// stay accounted for even when a subtransaction errored.
		for i := range errs {
			if errs[i] != nil {
				return Failed, committed, errs[i]
			}
		}
		// The paper's if-chain:
		//   all three committed        → true
		//   none of three committed    → false
		//   else (committed legs kept) → true
		switch committed {
		case 3:
			return Success, committed, nil
		case 0:
			return Failed, 0, nil
		default:
			return PartialSuccess, committed, nil
		}
	}
	return Failed, 0, fmt.Errorf("airline: unknown policy %d", policy)
}

// RunResult summarizes a reservation workload run.
type RunResult struct {
	Outcomes map[Verdict]int
	// LegsCommitted counts committed leg transactions across all
	// reservations; it must equal SeatsBooked (conservation).
	LegsCommitted int64
	// SeatsBooked counts seats held at the end (partial bookings hold
	// seats without completing an itinerary).
	SeatsBooked int64
	Group       *core.Group
	TM          *stm.STM
}

// Report returns the agent group's cost report.
func (r RunResult) Report() core.GroupReport { return r.Group.Report() }

// SuccessRate returns complete itineraries / attempts.
func (r RunResult) SuccessRate() float64 {
	tot := r.Outcomes[Success] + r.Outcomes[PartialSuccess] + r.Outcomes[Failed]
	if tot == 0 {
		return 0
	}
	return float64(r.Outcomes[Success]) / float64(tot)
}

// Run books wl's itineraries with `agents` concurrent booking agents
// under the given policy.
func Run(sys *core.System, wl workload.Airline, agents int, policy Policy) (RunResult, error) {
	if agents < 1 {
		return RunResult{}, fmt.Errorf("airline: need at least one agent")
	}
	d := NewDesk(sys.TM, wl)
	res := RunResult{Outcomes: map[Verdict]int{}, TM: sys.TM}
	var firstErr error
	record := func(v Verdict, legs int, err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		res.Outcomes[v]++
		res.LegsCommitted += int64(legs)
	}

	res.Group = sys.NewGroup("airline", DefaultAttrs, agents, func(ctx *core.Ctx) {
		for i := ctx.Index(); i < len(wl.Itineraries); i += ctx.GroupSize() {
			record(Reserve(ctx, d, wl.Itineraries[i], policy))
		}
	})
	if err := sys.Run(); err != nil {
		return RunResult{}, err
	}
	if firstErr != nil {
		return RunResult{}, firstErr
	}
	res.SeatsBooked = d.SeatsBooked()
	if res.SeatsBooked != res.LegsCommitted {
		return RunResult{}, fmt.Errorf("airline: seat conservation violated: booked %d, committed legs %d",
			res.SeatsBooked, res.LegsCommitted)
	}
	return res, nil
}
