// Package bank implements the paper's banking example (§4): the
// transfer(a, b, m) operation with attributes [intra_proc, trans_exec],
// built from two subtransactions — withdraw and deposit — each of which
// executes atomically, with the transfer committing only when both
// subtransactions commit. Money conservation (Σ balances constant) is
// the safety invariant every workload run is checked against.
package bank

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/stm"
	"repro/internal/workload"
)

// DefaultAttrs is the paper's attribute set for the banking example.
var DefaultAttrs = core.Attrs{Dist: core.IntraProc, Exec: core.TransExec, Comm: core.SynchComm}

// ErrInsufficient is the withdraw subtransaction's user-level abort.
var ErrInsufficient = errors.New("bank: insufficient funds")

// Bank is a set of transactional accounts.
type Bank struct {
	Accounts []*stm.TVar[int64]
}

// New creates nAcc accounts, each holding initBalance.
func New(tm *stm.STM, nAcc int, initBalance int64) *Bank {
	b := &Bank{Accounts: make([]*stm.TVar[int64], nAcc)}
	for i := range b.Accounts {
		b.Accounts[i] = stm.NewTVar(tm, fmt.Sprintf("acct/%d", i), initBalance)
	}
	return b
}

// Total returns Σ balances (cost-free; for invariant checks).
func (b *Bank) Total() int64 {
	var s int64
	for _, a := range b.Accounts {
		s += a.Value()
	}
	return s
}

// Withdraw is the paper's withdraw subtransaction: inside child tx c,
// it debits amount from account a, or aborts with ErrInsufficient.
func (b *Bank) Withdraw(c *stm.Tx, acct int, amount int64) error {
	bal := b.Accounts[acct].Get(c)
	if bal < amount {
		return ErrInsufficient
	}
	b.Accounts[acct].Set(c, bal-amount)
	return nil
}

// Deposit is the paper's deposit subtransaction: credits amount to
// account a.
func (b *Bank) Deposit(c *stm.Tx, acct int, amount int64) error {
	b.Accounts[acct].Set(c, b.Accounts[acct].Get(c)+amount)
	return nil
}

// Transfer runs the paper's transfer(a, b, m): a trans_exec operation
// with two nested subtransactions. It returns true when both
// subtransactions (and hence the enclosing transaction) committed.
func (b *Bank) Transfer(ctx *core.Ctx, t workload.Transfer) (bool, error) {
	_, err := ctx.Atomically(func(tx *stm.Tx) error {
		cmit1 := tx.Nested(func(c *stm.Tx) error {
			return b.Withdraw(c, t.From, t.Amount)
		}) == nil
		cmit2 := tx.Nested(func(c *stm.Tx) error {
			return b.Deposit(c, t.To, t.Amount)
		}) == nil
		if cmit1 && cmit2 {
			return nil
		}
		// Abort the whole transfer so a lone committed subtransaction
		// (e.g. the deposit) cannot leak: all-or-nothing.
		return ErrInsufficient
	})
	if err == nil {
		return true, nil
	}
	if errors.Is(err, ErrInsufficient) {
		return false, nil
	}
	return false, err
}

// RunResult summarizes a workload run.
type RunResult struct {
	Succeeded int // transfers where both subtransactions committed
	Declined  int // user-level declines (insufficient funds)
	Group     *core.Group
	TM        *stm.STM
}

// Report returns the worker group's cost report.
func (r RunResult) Report() core.GroupReport { return r.Group.Report() }

// Throughput returns committed transfers per 1000 virtual ticks.
func (r RunResult) Throughput() float64 {
	t := r.Report().T()
	if t == 0 {
		return 0
	}
	return float64(r.Succeeded) / float64(t) * 1000
}

// Run executes a transfer workload with `workers` STAMP processes.
// Transfers are dealt round-robin to workers. attrs defaults to the
// paper's [intra_proc, trans_exec].
func Run(sys *core.System, wl workload.Bank, workers int, attrs *core.Attrs) (RunResult, error) {
	if workers < 1 {
		return RunResult{}, fmt.Errorf("bank: need at least one worker")
	}
	a := DefaultAttrs
	if attrs != nil {
		a = *attrs
	}
	b := New(sys.TM, wl.Accounts, wl.InitBalance)
	res := RunResult{TM: sys.TM}
	var firstErr error
	record := func(ok bool, err error) {
		switch {
		case err != nil && firstErr == nil:
			firstErr = err
		case ok:
			res.Succeeded++
		default:
			res.Declined++
		}
	}

	res.Group = sys.NewGroup("bank", a, workers, func(ctx *core.Ctx) {
		for i := ctx.Index(); i < len(wl.Transfers); i += ctx.GroupSize() {
			record(b.Transfer(ctx, wl.Transfers[i]))
		}
	})
	if err := sys.Run(); err != nil {
		return RunResult{}, err
	}
	if firstErr != nil {
		return RunResult{}, firstErr
	}
	if got, want := b.Total(), wl.TotalMoney(); got != want {
		return RunResult{}, fmt.Errorf("bank: conservation violated: Σ=%d, want %d", got, want)
	}
	return res, nil
}
