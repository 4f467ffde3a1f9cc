package racedet

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/stm"
)

// TestTxCommitOrdersPublication pins the STM happens-before edge:
// commits are totally ordered, so a word written before a transaction
// commits flag=1 happens before a read made after a later transaction
// commits a read of the flag. Every entry point must fire the commit
// probe, or the publication is reported as a race.
func TestTxCommitOrdersPublication(t *testing.T) {
	entryPoints := []struct {
		name string
		run  func(ctx *core.Ctx, body func(*stm.Tx) error) (stm.Outcome, error)
	}{
		{"Atomically", (*core.Ctx).Atomically},
		{"OrElse", func(ctx *core.Ctx, body func(*stm.Tx) error) (stm.Outcome, error) {
			return ctx.AtomicallyOrElse(body, nil)
		}},
	}
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			sys := core.NewSystem(machine.Generic())
			d := Attach(sys)
			x := memory.NewRegion[int64](sys.Mem, "pub/x", memory.Inter, 0, 1)
			flag := stm.NewTVar(sys.TM, "pub/flag", int64(0))
			var seen int64
			sys.NewGroup("pub", exampleAttrs, 2, func(ctx *core.Ctx) {
				if ctx.Index() == 0 {
					x.Write(ctx, 0, 42)
					if _, err := ep.run(ctx, func(tx *stm.Tx) error {
						flag.Set(tx, 1)
						return nil
					}); err != nil {
						t.Error(err)
					}
					return
				}
				ctx.IntOps(10000) // start well after the publisher commits
				if _, err := ep.run(ctx, func(tx *stm.Tx) error {
					seen = flag.Get(tx)
					return nil
				}); err != nil {
					t.Error(err)
				}
				_ = x.Read(ctx, 0)
			})
			if err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if seen != 1 {
				t.Fatalf("reader saw flag %d, want the published 1", seen)
			}
			if r := d.Report(); r != nil {
				t.Fatalf("publication through a committed flag reported as a race:\n%s", r)
			}
		})
	}
}
