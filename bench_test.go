// Package repro_test is the benchmark harness of the reproduction: one
// testing.B benchmark per paper artifact (Table 1, Figure 1, the §4
// derivations and their claims, plus the DESIGN.md ablations). Each
// benchmark runs the corresponding deterministic simulation and reports
// the model quantities — virtual time (vticks), energy (venergy) and
// power (vpower) — alongside wall-clock ns/op, so
//
//	go test -bench=. -benchmem
//
// regenerates every row the paper's evaluation implies. The same
// generators are callable as a CLI via cmd/stampbench.
package repro_test

import (
	"testing"

	"repro/internal/apps/airline"
	"repro/internal/apps/apsp"
	"repro/internal/apps/bank"
	"repro/internal/apps/jacobi"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stm"
	"repro/internal/workload"
	"repro/stamp"
)

// report attaches the model quantities to a benchmark.
func report(b *testing.B, rep core.GroupReport) {
	b.ReportMetric(float64(rep.T()), "vticks")
	b.ReportMetric(rep.E(), "venergy")
	b.ReportMetric(rep.Power(), "vpower")
}

// runExperiment benchmarks a whole registered experiment (the unit the
// paper's tables correspond to).
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Passed() {
			b.Fatalf("experiment %s failed checks:\n%s", id, res)
		}
	}
}

// --- E1: Table 1 -------------------------------------------------------

func BenchmarkTable1_AllCombinations(b *testing.B) { runExperiment(b, "table1") }

// --- E2: Figure 1 ------------------------------------------------------

func BenchmarkFig1_NiagaraOccupancy(b *testing.B) { runExperiment(b, "fig1") }

// --- E3: §4 Jacobi derivation chain -------------------------------------

func BenchmarkJacobi_PredictionTable(b *testing.B) { runExperiment(b, "jacobi") }

func benchJacobiN(b *testing.B, n int) {
	ls := workload.NewLinearSystem(n, int64(n))
	var rep core.GroupReport
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem(machine.Niagara())
		res, err := jacobi.Run(sys, jacobi.Config{System: ls, Iters: 4})
		if err != nil {
			b.Fatal(err)
		}
		rep = res.Report()
	}
	report(b, rep)
}

func BenchmarkJacobi_N8(b *testing.B)  { benchJacobiN(b, 8) }
func BenchmarkJacobi_N16(b *testing.B) { benchJacobiN(b, 16) }
func BenchmarkJacobi_N32(b *testing.B) { benchJacobiN(b, 32) }
func BenchmarkJacobi_N64(b *testing.B) { benchJacobiN(b, 64) }

// N128 is the size-up run: 128 unknowns over the 32-thread Niagara, i.e.
// 4 rows per process — beyond the largest size the paper's table sweeps.
func BenchmarkJacobi_N128(b *testing.B) { benchJacobiN(b, 128) }

// --- E4: §4 power envelope ----------------------------------------------

func BenchmarkPowerEnvelope(b *testing.B) { runExperiment(b, "envelope") }

// --- E5: §4 banking -------------------------------------------------------

func BenchmarkBank_SweepTable(b *testing.B) { runExperiment(b, "bank") }

func benchBank(b *testing.B, accounts int, hot float64) {
	wl := workload.NewBank(accounts, 96, 1000, hot, 7)
	var rep core.GroupReport
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem(machine.Niagara(), core.WithContentionManager(stm.Timestamp{}))
		res, err := bank.Run(sys, wl, 16, nil)
		if err != nil {
			b.Fatal(err)
		}
		rep = res.Report()
	}
	report(b, rep)
}

func BenchmarkBank_Uniform256(b *testing.B) { benchBank(b, 256, 0) }
func BenchmarkBank_HotSpot256(b *testing.B) { benchBank(b, 256, 0.9) }

// --- E6: §4 airline --------------------------------------------------------

func BenchmarkAirline_PolicyTable(b *testing.B) { runExperiment(b, "airline") }

func benchAirline(b *testing.B, policy airline.Policy) {
	wl := workload.NewAirline(6, 4, 120, 31)
	var rep core.GroupReport
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem(machine.Niagara())
		res, err := airline.Run(sys, wl, 8, policy)
		if err != nil {
			b.Fatal(err)
		}
		rep = res.Report()
	}
	report(b, rep)
}

func BenchmarkAirline_Partial(b *testing.B) { benchAirline(b, airline.Partial) }
func BenchmarkAirline_Strict(b *testing.B)  { benchAirline(b, airline.Strict) }

// --- E7: §4 APSP -------------------------------------------------------------

func BenchmarkAPSP_ConvergenceTable(b *testing.B) { runExperiment(b, "apsp") }

func benchAPSP(b *testing.B, mode apsp.Mode, skew float64) {
	g := workload.NewRandomGraph(16, 0.25, 40, 16*13)
	var slow []float64
	if skew > 1 {
		slow = make([]float64, 16)
		for i := range slow {
			slow[i] = 1
		}
		slow[0] = skew
	}
	var rep core.GroupReport
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem(machine.Niagara())
		res, err := apsp.Run(sys, apsp.Config{Graph: g, Mode: mode, SlowFactor: slow})
		if err != nil {
			b.Fatal(err)
		}
		rep = res.Report()
	}
	report(b, rep)
}

func BenchmarkAPSP_Async(b *testing.B)          { benchAPSP(b, apsp.Async, 1) }
func BenchmarkAPSP_BulkSync(b *testing.B)       { benchAPSP(b, apsp.BulkSync, 1) }
func BenchmarkAPSP_AsyncSkewed(b *testing.B)    { benchAPSP(b, apsp.Async, 4) }
func BenchmarkAPSP_BulkSyncSkewed(b *testing.B) { benchAPSP(b, apsp.BulkSync, 4) }

// V32 is the size-up run: a 32-vertex graph (one process per vertex,
// 1024-word distance matrix, each relaxation round reading all of it).
func BenchmarkAPSP_V32(b *testing.B) {
	g := workload.NewRandomGraph(32, 0.25, 40, 32*13)
	var rep core.GroupReport
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem(machine.Niagara())
		res, err := apsp.Run(sys, apsp.Config{Graph: g, Mode: apsp.BulkSync})
		if err != nil {
			b.Fatal(err)
		}
		rep = res.Report()
	}
	report(b, rep)
}

// --- E8: §2.1 DVFS argument -----------------------------------------------------

func BenchmarkDVFS_OneVsEight(b *testing.B) { runExperiment(b, "dvfs") }

// --- §2.2 related-model comparison -----------------------------------------------

func BenchmarkModels_Comparison(b *testing.B) { runExperiment(b, "models") }

// --- Framework generality: kernel cookbook ------------------------------------------

func BenchmarkKernels_Cookbook(b *testing.B) { runExperiment(b, "kernels") }

// --- §5 future work: optimizer -----------------------------------------------------

func BenchmarkOptimizer_MetricTable(b *testing.B) { runExperiment(b, "optimizer") }
func BenchmarkAdaptive_Reallocation(b *testing.B) { runExperiment(b, "realloc") }

// --- Ablations -----------------------------------------------------------------

func BenchmarkAblation_Kappa(b *testing.B)         { runExperiment(b, "kappa") }
func BenchmarkAblation_Bandwidth(b *testing.B)     { runExperiment(b, "bandwidth") }
func BenchmarkAblation_ContentionMgr(b *testing.B) { runExperiment(b, "managers") }
func BenchmarkAblation_Distribution(b *testing.B)  { runExperiment(b, "distribution") }
func BenchmarkAblation_Gating(b *testing.B)        { runExperiment(b, "gating") }
func BenchmarkAblation_Fabric(b *testing.B)        { runExperiment(b, "fabric") }

// --- Engine micro-benchmarks (host performance of the simulator) ----------------

func BenchmarkEngine_EventDispatch(b *testing.B) {
	k := sim.NewKernel()
	k.Spawn("spin", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Hold(1)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEngine_STMCommit(b *testing.B) {
	sys := stamp.NewSystem(stamp.Niagara())
	v := stamp.NewTVar(sys, "v", int64(0))
	sys.NewGroup("w", stamp.Attrs{Comm: stamp.AsyncComm}, 1, func(ctx *stamp.Ctx) {
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Atomically(func(tx *stamp.Tx) error {
				v.Set(tx, int64(i))
				return nil
			}); err != nil {
				b.Error(err)
			}
		}
	})
	b.ResetTimer()
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEngine_SharedMemoryAccess(b *testing.B) {
	sys := stamp.NewSystem(stamp.Niagara())
	r := stamp.NewRegion[int64](sys, "r", stamp.Inter, 0, 64)
	sys.NewGroup("w", stamp.Attrs{Comm: stamp.AsyncComm}, 1, func(ctx *stamp.Ctx) {
		for i := 0; i < b.N; i++ {
			r.Write(ctx, i%64, int64(i))
		}
	})
	b.ResetTimer()
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEngine_SharedMemoryRange(b *testing.B) {
	sys := stamp.NewSystem(stamp.Niagara())
	r := stamp.NewRegion[int64](sys, "r", stamp.Inter, 0, 1024)
	sys.NewGroup("r", stamp.Attrs{Comm: stamp.AsyncComm}, 1, func(ctx *stamp.Ctx) {
		buf := make([]int64, 1024)
		for i := 0; i < b.N; i++ {
			r.ReadRange(ctx, 0, buf)
		}
	})
	b.ResetTimer()
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkEngine_MessageRoundTrip(b *testing.B) {
	sys := stamp.NewSystem(stamp.Niagara())
	attrs := stamp.Attrs{Dist: stamp.IntraProc, Comm: stamp.AsyncComm}
	sys.NewGroup("pp", attrs, 2, func(ctx *stamp.Ctx) {
		other := 1 - ctx.Index()
		for i := 0; i < b.N; i++ {
			if ctx.Index() == 0 {
				ctx.SendTo(other, i)
				ctx.Recv()
			} else {
				ctx.Recv()
				ctx.SendTo(other, i)
			}
		}
	})
	b.ResetTimer()
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
}
