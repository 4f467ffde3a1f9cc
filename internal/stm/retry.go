package stm

import "errors"

// Conditional transactions in the style of composable STM: a
// transaction body may call tx.Retry() to declare that it cannot
// proceed in the current state (buffer full, queue empty, seat sold
// out). The attempt rolls back and the process blocks until some other
// transaction commits, then re-executes. OrElse composes two
// alternatives: if the first retries, the second runs; only if both
// retry does the process block.

// errRetry is the panic sentinel for tx.Retry.
var errRetry = errors.New("stm: transaction retry requested")

// Retry aborts the current attempt and blocks the process until another
// transaction commits anywhere in this STM, then re-executes the body.
// Call it when the transaction's precondition does not hold. A Retry
// that no other process can satisfy surfaces as the simulator's
// deadlock error.
func (tx *Tx) Retry() {
	panic(errRetry)
}

// wakeCommitWaiters releases every process blocked in a Retry.
func (s *STM) wakeCommitWaiters() {
	if s.commitWaiters.Len() > 0 {
		s.commitWaiters.Broadcast(s.m.K)
	}
}

// Waiters returns how many processes are blocked in a Retry (for
// tests and introspection).
func (s *STM) Waiters() int { return s.commitWaiters.Len() }
