package stm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/agenttest"
	"repro/internal/sim"
)

// entryPoints runs one body through each top-level entry point, so a
// schedule can be pinned against both: Atomically is an OrElse with no
// alternative and must behave exactly like one.
var entryPoints = []struct {
	name string
	run  func(s *STM, a Agent, body func(*Tx) error) (Outcome, error)
}{
	{"Atomically", (*STM).Atomically},
	{"OrElse", func(s *STM, a Agent, body func(*Tx) error) (Outcome, error) {
		return s.AtomicallyOrElse(a, body, nil)
	}},
}

// boundedBuffer is the classic composable-STM structure: Put retries
// when full, Take retries when empty.
type boundedBuffer struct {
	s    *STM
	cap  int
	size *TVar[int64]
	head *TVar[int64]
	data []*TVar[int64]
}

func newBuffer(s *STM, capacity int) *boundedBuffer {
	b := &boundedBuffer{
		s: s, cap: capacity,
		size: NewTVar(s, "buf/size", int64(0)),
		head: NewTVar(s, "buf/head", int64(0)),
	}
	for i := 0; i < capacity; i++ {
		b.data = append(b.data, NewTVar(s, fmt.Sprintf("buf/%d", i), int64(0)))
	}
	return b
}

func (b *boundedBuffer) put(a Agent, v int64) error {
	_, err := b.s.Atomically(a, func(tx *Tx) error {
		n := b.size.Get(tx)
		if n >= int64(b.cap) {
			tx.Retry()
		}
		h := b.head.Get(tx)
		b.data[(h+n)%int64(b.cap)].Set(tx, v)
		b.size.Set(tx, n+1)
		return nil
	})
	return err
}

func (b *boundedBuffer) take(a Agent) (int64, error) {
	var out int64
	_, err := b.s.Atomically(a, func(tx *Tx) error {
		n := b.size.Get(tx)
		if n == 0 {
			tx.Retry()
		}
		h := b.head.Get(tx)
		out = b.data[h%int64(b.cap)].Get(tx)
		b.head.Set(tx, (h+1)%int64(b.cap))
		b.size.Set(tx, n-1)
		return nil
	})
	return out, err
}

func TestBoundedBufferProducerConsumer(t *testing.T) {
	k, s := rig(Timestamp{})
	buf := newBuffer(s, 2) // tiny: forces both full- and empty-blocking
	const items = 10
	var got []int64
	k.Spawn("producer", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		for i := int64(1); i <= items; i++ {
			if err := buf.put(a, i); err != nil {
				t.Errorf("put: %v", err)
			}
		}
	})
	k.Spawn("consumer", func(p *sim.Proc) {
		a := agenttest.New(p, 4)
		p.Hold(50) // let the producer fill and block on the tiny buffer
		for i := 0; i < items; i++ {
			v, err := buf.take(a)
			if err != nil {
				t.Errorf("take: %v", err)
			}
			got = append(got, v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != items {
		t.Fatalf("consumed %d items", len(got))
	}
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
	if s.Waiters() != 0 {
		t.Fatalf("leftover retry waiters: %d", s.Waiters())
	}
}

func TestRetryBlocksUntilCommit(t *testing.T) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			k, s := rig(nil)
			flag := NewTVar(s, "flag", int64(0))
			var observedAt sim.Time
			runs := 0
			var out Outcome
			k.Spawn("waiter", func(p *sim.Proc) {
				a := agenttest.New(p, 0)
				var err error
				out, err = ep.run(s, a, func(tx *Tx) error {
					runs++
					if flag.Get(tx) == 0 {
						tx.Retry()
					}
					return nil
				})
				if err != nil {
					t.Errorf("wait: %v", err)
				}
				observedAt = p.Now()
			})
			k.Spawn("setter", func(p *sim.Proc) {
				a := agenttest.New(p, 4)
				p.Hold(100)
				if _, err := s.Atomically(a, func(tx *Tx) error {
					flag.Set(tx, 1)
					return nil
				}); err != nil {
					t.Error(err)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if observedAt < 100 {
				t.Fatalf("waiter proceeded at %d before the flag was set", observedAt)
			}
			if runs != 2 || out.Attempts != 2 || !out.Committed {
				t.Fatalf("body ran %d times, outcome %+v; want one retry, then a commit", runs, out)
			}
		})
	}
}

// TestRetryInsideNestedReleasesChild: a Retry raised inside a nested
// child rolls the child back before the whole transaction blocks, so a
// writer can take the variables the child had acquired.
func TestRetryInsideNestedReleasesChild(t *testing.T) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			k, s := rig(Passive{})
			k.MaxEvents = 200_000
			v := NewTVar(s, "v", int64(0))
			gate := NewTVar(s, "gate", int64(0))
			var got int64
			k.Spawn("waiter", func(p *sim.Proc) {
				a := agenttest.New(p, 0)
				if _, err := ep.run(s, a, func(tx *Tx) error {
					return tx.Nested(func(c *Tx) error {
						v.Set(c, 1)
						if gate.Get(c) == 0 {
							c.Retry()
						}
						got = v.Get(c)
						return nil
					})
				}); err != nil {
					t.Errorf("waiter: %v", err)
				}
			})
			k.Spawn("writer", func(p *sim.Proc) {
				a := agenttest.New(p, 4)
				p.Hold(50)
				if _, err := s.Atomically(a, func(tx *Tx) error {
					v.Set(tx, 2)
					gate.Set(tx, 1)
					return nil
				}); err != nil {
					t.Errorf("writer: %v", err)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if got != 1 || v.Value() != 1 || gate.Value() != 1 {
				t.Fatalf("got %d, v %d, gate %d; want the waiter's write to land last", got, v.Value(), gate.Value())
			}
			if s.Waiters() != 0 {
				t.Fatalf("leftover retry waiters: %d", s.Waiters())
			}
		})
	}
}

func TestRetryWithNoWriterDeadlocks(t *testing.T) {
	k, s := rig(nil)
	v := NewTVar(s, "v", int64(0))
	k.Spawn("stuck", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		_, _ = s.Atomically(a, func(tx *Tx) error {
			if v.Get(tx) == 0 {
				tx.Retry()
			}
			return nil
		})
	})
	err := k.Run()
	var dl *sim.ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("want deadlock report, got %v", err)
	}
}

func TestOrElseTakesSecondBranch(t *testing.T) {
	k, s := rig(nil)
	primary := NewTVar(s, "primary", int64(0)) // empty → first retries
	fallback := NewTVar(s, "fallback", int64(7))
	var got int64
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		out, err := s.AtomicallyOrElse(a,
			func(tx *Tx) error {
				if primary.Get(tx) == 0 {
					tx.Retry()
				}
				got = primary.Get(tx)
				return nil
			},
			func(tx *Tx) error {
				got = fallback.Get(tx)
				fallback.Set(tx, 0)
				return nil
			})
		if err != nil || !out.Committed {
			t.Errorf("orelse: %v %v", out, err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("got %d, want fallback value 7", got)
	}
	if fallback.Value() != 0 {
		t.Fatal("fallback branch effects not committed")
	}
	if primary.Value() != 0 {
		t.Fatal("first branch effects leaked")
	}
}

func TestOrElsePrefersFirstBranch(t *testing.T) {
	k, s := rig(nil)
	primary := NewTVar(s, "primary", int64(5))
	fallback := NewTVar(s, "fallback", int64(7))
	var got int64
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		if _, err := s.AtomicallyOrElse(a,
			func(tx *Tx) error { got = primary.Get(tx); return nil },
			func(tx *Tx) error { got = fallback.Get(tx); return nil },
		); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("got %d, want first branch value 5", got)
	}
}

func TestOrElseBothRetryBlocksThenProceeds(t *testing.T) {
	k, s := rig(nil)
	a0 := NewTVar(s, "a", int64(0))
	b0 := NewTVar(s, "b", int64(0))
	var branch string
	k.Spawn("chooser", func(p *sim.Proc) {
		ag := agenttest.New(p, 0)
		if _, err := s.AtomicallyOrElse(ag,
			func(tx *Tx) error {
				if a0.Get(tx) == 0 {
					tx.Retry()
				}
				branch = "a"
				return nil
			},
			func(tx *Tx) error {
				if b0.Get(tx) == 0 {
					tx.Retry()
				}
				branch = "b"
				return nil
			}); err != nil {
			t.Errorf("orelse: %v", err)
		}
	})
	k.Spawn("enabler", func(p *sim.Proc) {
		ag := agenttest.New(p, 4)
		p.Hold(60)
		if _, err := s.Atomically(ag, func(tx *Tx) error {
			b0.Set(tx, 1)
			return nil
		}); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if branch != "b" {
		t.Fatalf("branch %q, want b", branch)
	}
}

func TestOrElseUserErrorNoRetry(t *testing.T) {
	k, s := rig(nil)
	v := NewTVar(s, "v", int64(0))
	boom := errors.New("boom")
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		_, err := s.AtomicallyOrElse(a,
			func(tx *Tx) error { tx.Retry(); return nil },
			func(tx *Tx) error {
				v.Set(tx, 9)
				return boom
			})
		if !errors.Is(err, boom) {
			t.Errorf("err = %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if v.Value() != 0 {
		t.Fatal("errored branch committed")
	}
}
