package stm

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// ContentionManager arbitrates transaction conflicts, in the sense of
// Scherer & Scott (PODC'05), which the paper cites for "robust
// contention management". Resolve is consulted when attacker finds a
// variable owned by victim; returning true aborts the victim, false
// makes the attacker abort itself. Backoff spaces retry attempts.
type ContentionManager interface {
	Name() string
	Resolve(attacker, victim *Tx) bool
	Backoff(attempt int) sim.Time
}

// Passive (a.k.a. Timid) always aborts the attacker, with linear
// backoff. Simple and livelock-free but can let a long victim starve
// everyone behind it.
type Passive struct{}

// Name returns "passive".
func (Passive) Name() string { return "passive" }

// Resolve always favors the victim.
func (Passive) Resolve(attacker, victim *Tx) bool { return false }

// Backoff grows linearly with the attempt number.
func (Passive) Backoff(attempt int) sim.Time { return sim.Time(attempt) }

// Aggressive always aborts the victim. Maximum immediacy, but prone to
// mutual slaughter under heavy contention, so — following Scherer &
// Scott's practical mitigations — aborted attempts back off
// exponentially (capped), spreading contenders apart until someone's
// window is undisturbed.
type Aggressive struct{}

// Name returns "aggressive".
func (Aggressive) Name() string { return "aggressive" }

// Resolve always favors the attacker.
func (Aggressive) Resolve(attacker, victim *Tx) bool { return true }

// Backoff doubles per attempt. The cap is deliberately high (2¹⁶
// ticks): progress under all-out aggression relies on retry gaps
// eventually exceeding the commit window, so the schedule must keep
// growing well past any realistic contention burst.
func (Aggressive) Backoff(attempt int) sim.Time {
	if attempt > 17 {
		return 1 << 16
	}
	return 1 << (attempt - 1)
}

// Karma favors whichever transaction has performed more transactional
// work (its karma), so nearly-complete transactions survive. Ties favor
// the victim.
type Karma struct{}

// Name returns "karma".
func (Karma) Name() string { return "karma" }

// Resolve aborts the victim only when the attacker has strictly more
// accumulated work.
func (Karma) Resolve(attacker, victim *Tx) bool { return attacker.karma > victim.karma }

// Backoff grows linearly with the attempt number.
func (Karma) Backoff(attempt int) sim.Time { return sim.Time(attempt) }

// Timestamp (the Greedy manager) favors the older transaction, which
// guarantees freedom from livelock: the oldest transaction in the
// system can never be aborted by a younger one.
type Timestamp struct{}

// Name returns "timestamp".
func (Timestamp) Name() string { return "timestamp" }

// Resolve aborts the victim when the attacker is older.
func (Timestamp) Resolve(attacker, victim *Tx) bool { return attacker.birth < victim.birth }

// Backoff grows linearly with the attempt number.
func (Timestamp) Backoff(attempt int) sim.Time { return sim.Time(attempt) }

// Managers returns one instance of every built-in contention manager,
// for comparison sweeps.
func Managers() []ContentionManager {
	return []ContentionManager{Passive{}, Aggressive{}, Karma{}, Timestamp{}}
}

// ManagerByName returns the built-in contention manager whose Name is
// name, or an error listing the valid names.
func ManagerByName(name string) (ContentionManager, error) {
	var names []string
	for _, m := range Managers() {
		if m.Name() == name {
			return m, nil
		}
		names = append(names, m.Name())
	}
	return nil, fmt.Errorf("unknown manager %q (want %s)", name, strings.Join(names, " | "))
}
