package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/apps/airline"
	"repro/internal/apps/bank"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/workload"
)

// The stm-hot inputs: the hot-spot, update-heavy regime where STM
// contention managers diverge. Half the transfers touch account 0, and
// 2,000 itineraries compete for 4 seats on each of 132 legs.
const (
	bankAccounts  = 64
	bankTransfers = 4000
	bankBalance   = 1000
	bankHot       = 0.5
	bankWorkers   = 16

	airSectors = 12
	airSeats   = 4
	airItins   = 2000
	airAgents  = 16
)

// stmOp is one op of an stm-hot pass: a bank run under a contention
// manager, or an airline run under a booking policy.
type stmOp struct {
	name   string
	app    string                // "bank" or "airline"
	mgr    stm.ContentionManager // bank only
	policy airline.Policy        // airline only
}

var stmOps = []stmOp{
	{name: "bank/timestamp", app: "bank", mgr: stm.Timestamp{}},
	{name: "bank/karma", app: "bank", mgr: stm.Karma{}},
	{name: "airline/partial", app: "airline", policy: airline.Partial},
	{name: "airline/strict", app: "airline", policy: airline.Strict},
}

type stmInputs struct {
	bank    workload.Bank
	airline workload.Airline
}

func genSTMInputs(seed int64) stmInputs {
	return stmInputs{
		bank:    workload.NewBank(bankAccounts, bankTransfers, bankBalance, bankHot, seed),
		airline: workload.NewAirline(airSectors, airSeats, airItins, seed),
	}
}

// runSTMHot is the stm-hot workload: a closed loop of passes over
// stmOps. Each pass is set up by generating its inputs from the seed,
// which gives the same inputs every time, and collecting the heap.
//
// A traced run rotates three kinds of pass: plain; traced, which wraps
// each bank.Run/airline.Run in a span and reads the System's counters
// afterwards; and observed, which attaches a full obs.Observer to every
// System. Plain passes give the end-to-end numbers and the base of both
// overhead ratios.
func runSTMHot(ctx context.Context, cfg config) (*result, error) {
	res := newResult()
	const (
		plainPass = iota
		tracedPass
		observedPass
	)
	var (
		setups    []float64    // seconds
		genMS     []float64    // traced run: input generation, milliseconds
		walls     [3][]float64 // pass walls by kind, seconds
		latencies []float64    // plain ops, milliseconds
		bankMS    []float64    // traced passes: time in bank.Run, milliseconds
		airlineMS []float64    // traced passes: time in airline.Run, milliseconds
		counts    layerCounts
		rt        goRuntime
	)
	kinds := 1
	if cfg.trace {
		kinds = 3
	}
	err := loop(ctx, cfg.duration, 2*kinds, func(i int) error {
		t := time.Now()
		sp := cfg.spans.begin("workload.gen", 0)
		in := genSTMInputs(cfg.seed)
		genMS = append(genMS, cfg.spans.end(sp))
		setups = append(setups, seconds(t))
		runtime.GC()

		kind := i % kinds
		var spans *spanLog
		if kind == tracedPass {
			spans = cfg.spans
		} else if kind == plainPass && cfg.trace {
			defer rt.bracket()()
		}
		pass := spans.begin("stm-hot.pass", 0)
		start := time.Now()
		var pc layerCounts
		passAppMS := map[string]float64{}
		for _, op := range stmOps {
			if err := ctx.Err(); err != nil {
				return err
			}
			var ob *obs.Observer
			if kind == observedPass {
				ob = obs.NewObserver()
			}
			t := time.Now()
			sys, ms, err := op.run(in, ob, spans, pass)
			lat := float64(time.Since(t).Nanoseconds()) / 1e6
			res.record("stm-hot/"+op.name, err)
			switch kind {
			case plainPass:
				latencies = append(latencies, lat)
			case tracedPass:
				passAppMS[op.app] += ms
				pc.add(countSystem(sys))
			}
		}
		walls[kind] = append(walls[kind], seconds(start))
		spans.end(pass)
		if kind == tracedPass {
			bankMS = append(bankMS, passAppMS["bank"])
			airlineMS = append(airlineMS, passAppMS["airline"])
			counts = pc
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	m := res.metrics
	plain := walls[plainPass]
	if err := setBatchEndToEnd(m, setups, plain, latencies); err != nil {
		return nil, err
	}
	if cfg.trace {
		counts.set(m)
		m["sim.ns_per_event"] = ratio(median(plain)*1e9, float64(counts.events))
		m["apps.bank.ms"] = median(bankMS)
		m["apps.airline.ms"] = median(airlineMS)
		m["workload.gen_ms"] = median(genMS)
		m["obs.overhead_ratio"] = ratio(median(walls[observedPass]), median(plain))
		rt.set(m)
		m["bench.trace_overhead_ratio"] = ratio(median(walls[tracedPass]), median(plain))
	}
	return res, nil
}

// run builds a System (with ob attached when non-nil), runs the op on it
// inside a span and verifies the outcome. It returns the System, the
// span's duration in milliseconds and the first error.
func (op stmOp) run(in stmInputs, ob *obs.Observer, spans *spanLog, parent int) (*core.System, float64, error) {
	var opts []core.Option
	if op.mgr != nil {
		opts = append(opts, core.WithContentionManager(op.mgr))
	}
	if ob != nil {
		opts = append(opts, core.WithObs(ob))
	}
	sys := core.NewSystem(machine.Niagara(), opts...)
	sp := spans.begin(op.app+".Run/"+op.name, parent)
	var err error
	if op.app == "bank" {
		var r bank.RunResult
		r, err = bank.Run(sys, in.bank, bankWorkers, nil)
		if err == nil {
			err = checkBank(in.bank, r)
		}
	} else {
		var r airline.RunResult
		r, err = airline.Run(sys, in.airline, airAgents, op.policy)
		if err == nil {
			err = checkAirline(in.airline, op.policy, r)
		}
	}
	return sys, spans.end(sp), err
}

// committedVars returns the committed value of every transactional
// variable whose name starts with prefix. The STM's state snapshot is
// the only read of the accounts and legs a finished bank.Run or
// airline.Run leaves behind; it is taken after the run has ended, so it
// charges nothing to the simulation.
func committedVars(tm *stm.STM, prefix string) (map[string]int64, error) {
	st, err := tm.Snapshot()
	if err != nil {
		return nil, err
	}
	vals := map[string]int64{}
	for _, v := range st.Vars {
		if !strings.HasPrefix(v.Name, prefix) {
			continue
		}
		x, ok := v.Val.(int64)
		if !ok {
			return nil, fmt.Errorf("%s holds a %T, want int64", v.Name, v.Val)
		}
		vals[v.Name] = x
	}
	return vals, nil
}

// checkBank verifies a bank op: every transfer succeeded or was
// declined, and the balances still sum to the money the bank started
// with (Bank.Total() == TotalMoney()).
func checkBank(wl workload.Bank, r bank.RunResult) error {
	if n := r.Succeeded + r.Declined; n != len(wl.Transfers) {
		return fmt.Errorf("%d succeeded + %d declined transfers, want %d", r.Succeeded, r.Declined, len(wl.Transfers))
	}
	balances, err := committedVars(r.TM, "acct/")
	if err != nil {
		return err
	}
	if len(balances) != wl.Accounts {
		return fmt.Errorf("%d accounts, want %d", len(balances), wl.Accounts)
	}
	var total int64
	for _, b := range balances {
		total += b
	}
	if total != wl.TotalMoney() {
		return fmt.Errorf("balances sum to %d, want %d", total, wl.TotalMoney())
	}
	return nil
}

// checkAirline verifies an airline op: every itinerary got a verdict, no
// leg is sold past capacity, the seats held equal the leg reservations
// committed, and a strict run books only whole itineraries.
func checkAirline(wl workload.Airline, policy airline.Policy, r airline.RunResult) error {
	verdicts := r.Outcomes[airline.Success] + r.Outcomes[airline.PartialSuccess] + r.Outcomes[airline.Failed]
	if verdicts != len(wl.Itineraries) {
		return fmt.Errorf("%d verdicts, want %d", verdicts, len(wl.Itineraries))
	}
	left, err := committedVars(r.TM, "leg/")
	if err != nil {
		return err
	}
	if len(left) != wl.NumLegs() {
		return fmt.Errorf("%d legs, want %d", len(left), wl.NumLegs())
	}
	var booked int64
	for name, n := range left {
		if n < 0 || n > wl.SeatsPerLeg {
			return fmt.Errorf("%s has %d of %d seats left", name, n, wl.SeatsPerLeg)
		}
		booked += wl.SeatsPerLeg - n
	}
	if booked != r.LegsCommitted {
		return fmt.Errorf("%d seats booked, %d leg reservations committed", booked, r.LegsCommitted)
	}
	if policy == airline.Strict && (r.Outcomes[airline.PartialSuccess] != 0 || r.LegsCommitted != 3*int64(r.Outcomes[airline.Success])) {
		return fmt.Errorf("strict run kept a partial itinerary (%d partial, %d legs for %d successes)",
			r.Outcomes[airline.PartialSuccess], r.LegsCommitted, r.Outcomes[airline.Success])
	}
	return nil
}
