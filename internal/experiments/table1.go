package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/stm"
)

func init() {
	register("table1", "Table 1: execution × communication mode combinations", runTable1)
}

// table1Cell runs the common microkernel under one attribute combo:
// P processes, R S-rounds each; per round every process bumps a shared
// counter (transactionally under trans_exec, raw shared-memory ops
// under async_exec) and passes a token around a ring.
func table1Cell(attrs core.Attrs, procs, rounds int) (rep core.GroupReport, tm *stm.STM, finalCount int64) {
	sys := core.NewSystem(machine.Niagara(), core.WithContentionManager(stm.Timestamp{}))
	ctr := stm.NewTVar(sys.TM, "ctr", int64(0))
	raw := memory.NewRegion[int64](sys.Mem, "raw", memory.Inter, 0, 1).
		AllowRaces("async_exec cell bumps the counter racily on purpose — Table 1 contrasts it with the trans_exec cell")

	g := sys.NewGroup("t1", attrs, procs, func(ctx *core.Ctx) {
		right := (ctx.Index() + 1) % procs
		for r := 0; r < rounds; r++ {
			ctx.SRound(func() {
				if r > 0 {
					ctx.Recv() // token from the left neighbor
				}
				if attrs.Exec == core.TransExec {
					_, _ = ctx.Atomically(func(tx *stm.Tx) error {
						ctr.Modify(tx, func(x int64) int64 { return x + 1 })
						return nil
					})
				} else {
					v := raw.Read(ctx, 0)
					ctx.IntOps(1)
					raw.Write(ctx, 0, v+1)
				}
				ctx.SendTo(right, r)
			})
		}
		// Drain the final round's token so mailboxes come out empty.
		ctx.Recv()
	})
	if err := sys.Run(); err != nil {
		panic(fmt.Sprintf("table1 %v: %v", attrs, err))
	}
	if attrs.Exec == core.TransExec {
		finalCount = ctr.Value()
	} else {
		//stamplint:allow backdoor: cost-free result extraction after the simulation ends
		finalCount = raw.Peek(0)
	}
	return g.Report(), sys.TM, finalCount
}

func runTable1() Result {
	const procs, rounds = 16, 8
	want := int64(procs * rounds)

	t := newTable()
	t.row("exec", "comm", "T", "E", "P", "commits", "aborts", "counter")
	var checks []Check

	type cell struct {
		attrs core.Attrs
		rep   core.GroupReport
		tm    *stm.STM
		count int64
	}
	combos := core.Table1(core.IntraProc)
	cells := make([]cell, len(combos))
	sweep(runtime.GOMAXPROCS(0), len(combos), func(i int) {
		rep, tm, count := table1Cell(combos[i], procs, rounds)
		cells[i] = cell{combos[i], rep, tm, count}
	})
	for _, c := range cells {
		t.row(c.attrs.Exec, c.attrs.Comm,
			c.rep.T(), fmt.Sprintf("%.0f", c.rep.E()), fmt.Sprintf("%.3f", c.rep.Power()),
			c.tm.Commits(), c.tm.Aborts(), c.count)
	}

	for _, c := range cells {
		name := fmt.Sprintf("%v+%v", c.attrs.Exec, c.attrs.Comm)
		if c.attrs.Exec == core.TransExec {
			// Transactional execution preserves the counter exactly.
			checks = append(checks, check(name+" counter exact", c.count == want,
				"count=%d want=%d", c.count, want))
			checks = append(checks, check(name+" committed all", c.tm.Commits() == int64(want),
				"commits=%d", c.tm.Commits()))
		} else {
			// Raw read-modify-write may lose updates — the hazard
			// trans_exec exists to remove. Under synch_comm accesses
			// serialize (queued memory), but the RMW is still not
			// atomic across the read and write.
			checks = append(checks, check(name+" counter bounded", c.count <= want && c.count > 0,
				"count=%d want≤%d", c.count, want))
		}
	}

	// The async/async cell must be the fastest (no barriers, no
	// transaction overhead); trans/synch the slowest or equal.
	var asyncAsync, transSynch core.GroupReport
	for _, c := range cells {
		if c.attrs.Exec == core.AsyncExec && c.attrs.Comm == core.AsyncComm {
			asyncAsync = c.rep
		}
		if c.attrs.Exec == core.TransExec && c.attrs.Comm == core.SynchComm {
			transSynch = c.rep
		}
	}
	checks = append(checks, check("async_exec+async_comm fastest cell",
		asyncAsync.T() <= transSynch.T(),
		"async/async T=%d trans/synch T=%d", asyncAsync.T(), transSynch.T()))

	return Result{
		ID:     "table1",
		Title:  Title("table1"),
		Table:  t.String(),
		Checks: checks,
	}
}
