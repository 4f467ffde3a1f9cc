package stm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/agenttest"
	"repro/internal/machine"
	"repro/internal/sim"
)

func rig(mgr ContentionManager) (*sim.Kernel, *STM) {
	k := sim.NewKernel()
	m := machine.New(k, machine.Niagara())
	return k, New(m, mgr)
}

func TestSingleTransactionCommits(t *testing.T) {
	k, s := rig(nil)
	v := NewTVar(s, "v", int64(0))
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		out, err := s.Atomically(a, func(tx *Tx) error {
			v.Set(tx, 42)
			return nil
		})
		if err != nil || !out.Committed || out.Attempts != 1 {
			t.Errorf("outcome %+v err %v", out, err)
		}
		if a.C.TxCommits != 1 {
			t.Errorf("agent commits = %d", a.C.TxCommits)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Value() != 42 {
		t.Fatalf("committed value %d, want 42", v.Value())
	}
	if v.Version() != 1 {
		t.Fatalf("version %d, want 1", v.Version())
	}
	if s.Commits() != 1 || s.Aborts() != 0 {
		t.Fatalf("stm commits=%d aborts=%d", s.Commits(), s.Aborts())
	}
}

func TestReadYourOwnWrite(t *testing.T) {
	k, s := rig(nil)
	v := NewTVar(s, "v", int64(7))
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		_, err := s.Atomically(a, func(tx *Tx) error {
			if got := v.Get(tx); got != 7 {
				t.Errorf("initial read %d", got)
			}
			v.Set(tx, 9)
			if got := v.Get(tx); got != 9 {
				t.Errorf("read-own-write %d, want 9", got)
			}
			if v.Value() != 7 {
				t.Errorf("buffered write leaked to committed value")
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUserAbortRollsBack(t *testing.T) {
	k, s := rig(nil)
	v := NewTVar(s, "v", int64(10))
	userErr := errors.New("insufficient funds")
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		out, err := s.Atomically(a, func(tx *Tx) error {
			v.Set(tx, 999)
			return userErr
		})
		if !errors.Is(err, userErr) {
			t.Errorf("err = %v", err)
		}
		if out.Committed {
			t.Error("user-aborted tx reported committed")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Value() != 10 {
		t.Fatalf("rolled-back value %d, want 10", v.Value())
	}
	if v.Version() != 0 {
		t.Fatalf("version bumped by aborted tx: %d", v.Version())
	}
}

// incrementers runs n concurrent read-modify-write transactions on one
// TVar and returns (final value, total attempts).
func incrementers(t *testing.T, mgr ContentionManager, n int, hold sim.Time) (int64, int) {
	t.Helper()
	k, s := rig(mgr)
	v := NewTVar(s, "ctr", int64(0))
	attempts := 0
	for i := 0; i < n; i++ {
		tid := machine.ThreadID(i % 32)
		k.Spawn(fmt.Sprintf("inc%d", i), func(p *sim.Proc) {
			a := agenttest.New(p, tid)
			out, err := s.Atomically(a, func(tx *Tx) error {
				old := v.Get(tx)
				p.Hold(hold) // widen the conflict window
				v.Set(tx, old+1)
				return nil
			})
			if err != nil {
				t.Errorf("incrementer error: %v", err)
			}
			attempts += out.Attempts
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return v.Value(), attempts
}

func TestNoLostUpdatesUnderContention(t *testing.T) {
	for _, mgr := range Managers() {
		mgr := mgr
		t.Run(mgr.Name(), func(t *testing.T) {
			got, attempts := incrementers(t, mgr, 16, 5)
			if got != 16 {
				t.Fatalf("%s: counter = %d, want 16 (lost updates)", mgr.Name(), got)
			}
			if attempts < 16 {
				t.Fatalf("attempts %d < transactions", attempts)
			}
		})
	}
}

func TestConflictCausesRetry(t *testing.T) {
	got, attempts := incrementers(t, Timestamp{}, 8, 20)
	if got != 8 {
		t.Fatalf("counter = %d, want 8", got)
	}
	if attempts <= 8 {
		t.Fatalf("expected retries under contention, attempts = %d", attempts)
	}
}

func TestAtomicityNoPartialStateVisible(t *testing.T) {
	// A writer updates two vars together; readers must never observe
	// one new and one old.
	k, s := rig(Timestamp{})
	x := NewTVar(s, "x", int64(0))
	y := NewTVar(s, "y", int64(0))
	const rounds = 10
	k.Spawn("writer", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		for i := int64(1); i <= rounds; i++ {
			i := i
			if _, err := s.Atomically(a, func(tx *Tx) error {
				x.Set(tx, i)
				p.Hold(3)
				y.Set(tx, i)
				return nil
			}); err != nil {
				t.Errorf("writer: %v", err)
			}
			p.Hold(2)
		}
	})
	for r := 0; r < 3; r++ {
		k.Spawn("reader", func(p *sim.Proc) {
			a := agenttest.New(p, 4)
			for i := 0; i < 20; i++ {
				var gx, gy int64
				if _, err := s.Atomically(a, func(tx *Tx) error {
					gx = x.Get(tx)
					gy = y.Get(tx)
					return nil
				}); err != nil {
					t.Errorf("reader: %v", err)
				}
				if gx != gy {
					t.Errorf("torn read: x=%d y=%d", gx, gy)
				}
				p.Hold(1)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPassiveAbortsAttacker(t *testing.T) {
	k, s := rig(Passive{})
	v := NewTVar(s, "v", int64(0))
	var victimAttempts, attackerAttempts int
	k.Spawn("victim", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		out, _ := s.Atomically(a, func(tx *Tx) error {
			v.Set(tx, 1)
			p.Hold(30)
			return nil
		})
		victimAttempts = out.Attempts
	})
	k.Spawn("attacker", func(p *sim.Proc) {
		a := agenttest.New(p, 4)
		p.Hold(5) // arrive while the victim owns v
		out, _ := s.Atomically(a, func(tx *Tx) error {
			v.Set(tx, 2)
			return nil
		})
		attackerAttempts = out.Attempts
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if victimAttempts != 1 {
		t.Errorf("passive victim aborted: attempts=%d", victimAttempts)
	}
	if attackerAttempts < 2 {
		t.Errorf("attacker never backed off: attempts=%d", attackerAttempts)
	}
}

func TestAggressiveAbortsVictim(t *testing.T) {
	k, s := rig(Aggressive{})
	v := NewTVar(s, "v", int64(0))
	var victimAttempts, attackerAttempts int
	k.Spawn("victim", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		out, _ := s.Atomically(a, func(tx *Tx) error {
			v.Set(tx, 1)
			p.Hold(30) // zombie window
			return nil
		})
		victimAttempts = out.Attempts
	})
	k.Spawn("attacker", func(p *sim.Proc) {
		a := agenttest.New(p, 4)
		p.Hold(5)
		out, _ := s.Atomically(a, func(tx *Tx) error {
			v.Set(tx, 2)
			return nil
		})
		attackerAttempts = out.Attempts
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if attackerAttempts != 1 {
		t.Errorf("aggressive attacker retried: attempts=%d", attackerAttempts)
	}
	if victimAttempts < 2 {
		t.Errorf("victim survived aggression: attempts=%d", victimAttempts)
	}
}

func TestKarmaFavorsWorker(t *testing.T) {
	k, s := rig(Karma{})
	// Rich tx has done lots of work; poor attacker should abort itself.
	vars := make([]*TVar[int64], 10)
	for i := range vars {
		vars[i] = NewTVar(s, fmt.Sprintf("v%d", i), int64(0))
	}
	hot := NewTVar(s, "hot", int64(0))
	var poorAttempts int
	k.Spawn("rich", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		if _, err := s.Atomically(a, func(tx *Tx) error {
			for _, v := range vars {
				v.Set(tx, 1) // build karma
			}
			hot.Set(tx, 1)
			p.Hold(40)
			return nil
		}); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("poor", func(p *sim.Proc) {
		a := agenttest.New(p, 4)
		p.Hold(80) // inside the window where rich owns hot
		out, _ := s.Atomically(a, func(tx *Tx) error {
			hot.Set(tx, 2)
			return nil
		})
		poorAttempts = out.Attempts
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if poorAttempts < 2 {
		t.Fatalf("low-karma attacker won against high-karma victim")
	}
}

func TestTimestampOlderWins(t *testing.T) {
	k, s := rig(Timestamp{})
	v := NewTVar(s, "v", int64(0))
	var youngAttempts, oldAttempts int
	k.Spawn("old", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		out, _ := s.Atomically(a, func(tx *Tx) error {
			v.Set(tx, 1)
			p.Hold(30)
			return nil
		})
		oldAttempts = out.Attempts
	})
	k.Spawn("young", func(p *sim.Proc) {
		a := agenttest.New(p, 4)
		p.Hold(5)
		out, _ := s.Atomically(a, func(tx *Tx) error {
			v.Set(tx, 2)
			return nil
		})
		youngAttempts = out.Attempts
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if oldAttempts != 1 {
		t.Errorf("older tx aborted by younger: attempts=%d", oldAttempts)
	}
	if youngAttempts < 2 {
		t.Errorf("younger tx won: attempts=%d", youngAttempts)
	}
}

func TestNestedCommitMergesIntoParent(t *testing.T) {
	k, s := rig(nil)
	a0 := NewTVar(s, "a", int64(100))
	b0 := NewTVar(s, "b", int64(0))
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		_, err := s.Atomically(a, func(tx *Tx) error {
			if err := tx.Nested(func(c *Tx) error {
				a0.Set(c, a0.Get(c)-30)
				return nil
			}); err != nil {
				return err
			}
			return tx.Nested(func(c *Tx) error {
				b0.Set(c, b0.Get(c)+30)
				return nil
			})
		})
		if err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if a0.Value() != 70 || b0.Value() != 30 {
		t.Fatalf("a=%d b=%d, want 70/30", a0.Value(), b0.Value())
	}
}

func TestNestedUserAbortRollsBackChildOnly(t *testing.T) {
	k, s := rig(nil)
	a0 := NewTVar(s, "a", int64(100))
	b0 := NewTVar(s, "b", int64(0))
	childErr := errors.New("child says no")
	k.Spawn("p", func(p *sim.Proc) {
		ag := agenttest.New(p, 0)
		_, err := s.Atomically(ag, func(tx *Tx) error {
			a0.Set(tx, 50) // parent write
			if err := tx.Nested(func(c *Tx) error {
				b0.Set(c, 999)
				a0.Set(c, 1) // overwrite parent's buffer
				return childErr
			}); !errors.Is(err, childErr) {
				t.Errorf("nested err = %v", err)
			}
			// Child rolled back: parent's buffer restored, b untouched.
			if got := a0.Get(tx); got != 50 {
				t.Errorf("parent buffer = %d after child abort, want 50", got)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if a0.Value() != 50 {
		t.Fatalf("a = %d, want 50 (parent committed)", a0.Value())
	}
	if b0.Value() != 0 {
		t.Fatalf("b = %d, want 0 (child write leaked)", b0.Value())
	}
}

func TestParentAbortDiscardsCommittedChild(t *testing.T) {
	k, s := rig(nil)
	v := NewTVar(s, "v", int64(0))
	userErr := errors.New("parent aborts")
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		_, err := s.Atomically(a, func(tx *Tx) error {
			if err := tx.Nested(func(c *Tx) error {
				v.Set(c, 7)
				return nil
			}); err != nil {
				return err
			}
			return userErr // parent user-abort after child committed
		})
		if !errors.Is(err, userErr) {
			t.Errorf("err = %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Value() != 0 {
		t.Fatalf("closed-nested child survived parent abort: v=%d", v.Value())
	}
}

func TestModify(t *testing.T) {
	k, s := rig(nil)
	v := NewTVar(s, "v", int64(5))
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		if _, err := s.Atomically(a, func(tx *Tx) error {
			v.Modify(tx, func(x int64) int64 { return x * 3 })
			return nil
		}); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Value() != 15 {
		t.Fatalf("modify result %d, want 15", v.Value())
	}
}

func TestOutcomeWastedWork(t *testing.T) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			// Six contending incrementers: every attempt ends in the
			// commit or in one abort, and every aborted attempt made at
			// least one transactional access before it rolled back.
			k, s := rig(Timestamp{})
			v := NewTVar(s, "v", int64(0))
			total := 0
			var wasted int64
			for i := 0; i < 6; i++ {
				k.Spawn("p", func(p *sim.Proc) {
					a := agenttest.New(p, 0)
					out, _ := ep.run(s, a, func(tx *Tx) error {
						old := v.Get(tx)
						p.Hold(25)
						v.Set(tx, old+1)
						return nil
					})
					total += out.Attempts
					wasted += out.WastedOps
				})
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if s.Aborts() == 0 {
				t.Fatal("no contention materialized")
			}
			if int64(total) != s.Commits()+s.Aborts() {
				t.Fatalf("attempts %d != commits %d + aborts %d", total, s.Commits(), s.Aborts())
			}
			if wasted < s.Aborts() {
				t.Fatalf("wasted ops %d < aborts %d", wasted, s.Aborts())
			}

			// One force-abort of a two-access attempt wastes exactly
			// those two accesses.
			k, s = rig(Aggressive{})
			u := NewTVar(s, "u", int64(0))
			v = NewTVar(s, "v", int64(0))
			var out Outcome
			k.Spawn("victim", func(p *sim.Proc) {
				a := agenttest.New(p, 0)
				out, _ = ep.run(s, a, func(tx *Tx) error {
					v.Set(tx, u.Get(tx)+1)
					p.Hold(30)
					return nil
				})
			})
			k.Spawn("attacker", func(p *sim.Proc) {
				a := agenttest.New(p, 4)
				p.Hold(5)
				if _, err := s.Atomically(a, func(tx *Tx) error {
					v.Set(tx, 2)
					return nil
				}); err != nil {
					t.Error(err)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if out.Attempts != 2 || out.WastedOps != 2 {
				t.Fatalf("victim attempts %d wasted %d, want 2 and 2", out.Attempts, out.WastedOps)
			}
		})
	}
}

// TestForceAbortedUserErrorRetries pins the zombie rule: an attempt a
// contention manager aborted counts as an abort whatever its body
// returned, because the body ran on reads that may be inconsistent.
func TestForceAbortedUserErrorRetries(t *testing.T) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			k, s := rig(Aggressive{})
			v := NewTVar(s, "v", int64(0))
			boom := errors.New("boom")
			var out Outcome
			var err error
			k.Spawn("victim", func(p *sim.Proc) {
				a := agenttest.New(p, 0)
				out, err = ep.run(s, a, func(tx *Tx) error {
					v.Set(tx, 1)
					p.Hold(100) // force-aborted during the hold
					return boom
				})
			})
			k.Spawn("attacker", func(p *sim.Proc) {
				a := agenttest.New(p, 4)
				p.Hold(5)
				if _, err := s.Atomically(a, func(tx *Tx) error {
					v.Set(tx, 2)
					return nil
				}); err != nil {
					t.Error(err)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if !errors.Is(err, boom) || out.Attempts != 2 || s.Aborts() != 1 {
				t.Fatalf("err %v, attempts %d, aborts %d; want boom after 2 attempts and 1 abort",
					err, out.Attempts, s.Aborts())
			}
			if v.Value() != 2 {
				t.Fatalf("v = %d, want the attacker's 2", v.Value())
			}
		})
	}
}

func TestAbortRate(t *testing.T) {
	k, s := rig(Timestamp{})
	if s.AbortRate() != 0 {
		t.Fatal("abort rate with no traffic should be 0")
	}
	_ = k
	s.commits, s.aborts = 3, 1
	if got := s.AbortRate(); got != 0.25 {
		t.Fatalf("abort rate %g, want 0.25", got)
	}
}

func TestManagerNames(t *testing.T) {
	want := map[string]bool{"passive": true, "aggressive": true, "karma": true, "timestamp": true}
	for _, m := range Managers() {
		if !want[m.Name()] {
			t.Fatalf("unexpected manager %q", m.Name())
		}
		delete(want, m.Name())
	}
	if len(want) != 0 {
		t.Fatalf("missing managers: %v", want)
	}
	for _, m := range Managers() {
		if got, err := ManagerByName(m.Name()); err != nil || got != m {
			t.Fatalf("ManagerByName(%q) = %v, %v", m.Name(), got, err)
		}
	}
	if _, err := ManagerByName("greedy"); err == nil ||
		!strings.Contains(err.Error(), "passive | aggressive | karma | timestamp") {
		t.Fatalf("unknown manager error %v does not list the managers", err)
	}
}

func TestTransactionsChargeTimeAndEnergy(t *testing.T) {
	k, s := rig(nil)
	v := NewTVar(s, "v", int64(0))
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		if _, err := s.Atomically(a, func(tx *Tx) error {
			v.Get(tx)
			v.Set(tx, 1)
			return nil
		}); err != nil {
			t.Error(err)
		}
		// 1 read + 1 write + 1 validation read of the read-set entry.
		if a.C.ReadsInter != 2 || a.C.WritesInter != 1 {
			t.Errorf("counters reads=%d writes=%d", a.C.ReadsInter, a.C.WritesInter)
		}
		if p.Now() == 0 {
			t.Error("transactional ops advanced no time")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTransferConservationQuick is the bank invariant as a property
// test: arbitrary transfer patterns conserve total balance.
func TestTransferConservationQuick(t *testing.T) {
	f := func(seedMoves []uint8) bool {
		if len(seedMoves) > 12 {
			seedMoves = seedMoves[:12]
		}
		k, s := rig(Timestamp{})
		const nAcc = 4
		accounts := make([]*TVar[int64], nAcc)
		for i := range accounts {
			accounts[i] = NewTVar(s, fmt.Sprintf("acc%d", i), int64(100))
		}
		for _, mv := range seedMoves {
			from := int(mv) % nAcc
			to := int(mv/4) % nAcc
			amt := int64(mv % 50)
			k.Spawn("xfer", func(p *sim.Proc) {
				a := agenttest.New(p, machine.ThreadID(int(mv)%32))
				_, _ = s.Atomically(a, func(tx *Tx) error {
					bal := accounts[from].Get(tx)
					if bal < amt {
						return errors.New("insufficient")
					}
					accounts[from].Set(tx, bal-amt)
					accounts[to].Set(tx, accounts[to].Get(tx)+amt)
					return nil
				})
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		var sum int64
		for _, acc := range accounts {
			sum += acc.Value()
		}
		return sum == 100*nAcc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGetOutsideTransactionPanics(t *testing.T) {
	_, s := rig(nil)
	v := NewTVar(s, "v", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Get(nil)")
		}
	}()
	v.Get(nil)
}

// TestSerializableInCommitOrder is the STM's strongest correctness
// check: every committed transaction computes its writes as a pure
// function of its reads, so if the execution is (strictly) serializable
// the final state must equal a sequential replay of the committed
// transactions in commit order. The commit log is appended immediately
// after Atomically returns, with no intervening yield, so log order is
// commit order in the sequential kernel.
func TestSerializableInCommitOrder(t *testing.T) {
	for _, mgr := range Managers() {
		mgr := mgr
		t.Run(mgr.Name(), func(t *testing.T) {
			k, s := rig(mgr)
			const nVars = 6
			vars := make([]*TVar[int64], nVars)
			for i := range vars {
				vars[i] = NewTVar(s, fmt.Sprintf("v%d", i), int64(i+1))
			}
			type op struct {
				a, b int
				salt int64
			}
			var log []op // commit order
			const procs, txsPerProc = 12, 3
			for pi := 0; pi < procs; pi++ {
				pi := pi
				k.Spawn(fmt.Sprintf("p%d", pi), func(p *sim.Proc) {
					ag := agenttest.New(p, machine.ThreadID(pi%32))
					for txi := 0; txi < txsPerProc; txi++ {
						o := op{
							a:    (pi + txi) % nVars,
							b:    (pi*3 + txi + 1) % nVars,
							salt: int64(pi*100 + txi),
						}
						if o.a == o.b {
							o.b = (o.b + 1) % nVars
						}
						out, err := s.Atomically(ag, func(tx *Tx) error {
							va := vars[o.a].Get(tx)
							vb := vars[o.b].Get(tx)
							p.Hold(sim.Time(pi % 4)) // stagger conflict windows
							vars[o.a].Set(tx, va*3+vb+o.salt)
							vars[o.b].Set(tx, vb*5-va+o.salt)
							return nil
						})
						if err != nil {
							t.Errorf("tx error: %v", err)
						}
						if out.Committed {
							log = append(log, o)
						}
					}
				})
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if len(log) != procs*txsPerProc {
				t.Fatalf("committed %d of %d transactions", len(log), procs*txsPerProc)
			}
			// Sequential replay in commit order.
			replay := make([]int64, nVars)
			for i := range replay {
				replay[i] = int64(i + 1)
			}
			for _, o := range log {
				va, vb := replay[o.a], replay[o.b]
				replay[o.a] = va*3 + vb + o.salt
				replay[o.b] = vb*5 - va + o.salt
			}
			for i, v := range vars {
				if v.Value() != replay[i] {
					t.Fatalf("%s: var %d = %d, replay says %d — execution not serializable in commit order",
						mgr.Name(), i, v.Value(), replay[i])
				}
			}
		})
	}
}

// TestSerializabilityQuick drives the same check over random schedules.
func TestSerializabilityQuick(t *testing.T) {
	f := func(seeds []uint8) bool {
		if len(seeds) > 10 {
			seeds = seeds[:10]
		}
		k, s := rig(Timestamp{})
		const nVars = 4
		vars := make([]*TVar[int64], nVars)
		for i := range vars {
			vars[i] = NewTVar(s, fmt.Sprintf("v%d", i), int64(1))
		}
		type op struct {
			a, b int
			salt int64
		}
		var log []op
		for i, sd := range seeds {
			i, sd := i, sd
			k.Spawn("p", func(p *sim.Proc) {
				ag := agenttest.New(p, machine.ThreadID(int(sd)%32))
				o := op{a: int(sd) % nVars, b: int(sd/4) % nVars, salt: int64(sd)}
				if o.a == o.b {
					o.b = (o.b + 1) % nVars
				}
				out, _ := s.Atomically(ag, func(tx *Tx) error {
					va := vars[o.a].Get(tx)
					p.Hold(sim.Time(i % 5))
					vb := vars[o.b].Get(tx)
					vars[o.a].Set(tx, va+vb+o.salt)
					vars[o.b].Set(tx, va-vb)
					return nil
				})
				if out.Committed {
					log = append(log, o)
				}
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		replay := []int64{1, 1, 1, 1}
		for _, o := range log {
			va, vb := replay[o.a], replay[o.b]
			replay[o.a] = va + vb + o.salt
			replay[o.b] = va - vb
		}
		for i, v := range vars {
			if v.Value() != replay[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
