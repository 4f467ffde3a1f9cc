package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/apps/jacobi"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

func init() {
	register("fabric", "ablation: the two communication families — Jacobi over message passing vs shared memory", runFabric)
}

func runFabric() Result {
	t := newTable()
	t.row("n", "fabric", "T", "E", "P", "reads", "writes", "sends", "recvs")
	var checks []Check

	// One cell per size and fabric, message passing first.
	sizes := []int{8, 16, 32}
	const iters = 4
	results := make([]jacobi.Result, 2*len(sizes))
	sweep(runtime.GOMAXPROCS(0), len(results), func(i int) {
		n := sizes[i/2]
		ls := workload.NewLinearSystem(n, int64(300+n))
		sys := core.NewSystem(machine.Niagara())
		var err error
		if i%2 == 0 {
			results[i], err = jacobi.Run(sys, jacobi.Config{System: ls, Iters: iters})
		} else {
			results[i], err = jacobi.RunShared(sys, jacobi.SharedConfig{System: ls, Iters: iters})
		}
		if err != nil {
			panic(err)
		}
	})

	type obs struct {
		n            int
		mpT, shmT    float64
		mpE, shmE    float64
		agreeExactly bool
	}
	var series []obs
	for k, n := range sizes {
		mp, shm := results[2*k], results[2*k+1]
		same := true
		for i := range mp.X {
			if d := mp.X[i] - shm.X[i]; d > 1e-12 || d < -1e-12 {
				same = false
			}
		}
		mpRep, shmRep := mp.Report(), shm.Report()
		t.row(n, "message passing", mpRep.T(), fmt.Sprintf("%.0f", mpRep.E()),
			fmt.Sprintf("%.3f", mpRep.Power()), mpRep.Ops.Reads(), mpRep.Ops.Writes(),
			mpRep.Ops.Sends(), mpRep.Ops.Recvs())
		t.row(n, "shared memory", shmRep.T(), fmt.Sprintf("%.0f", shmRep.E()),
			fmt.Sprintf("%.3f", shmRep.Power()), shmRep.Ops.Reads(), shmRep.Ops.Writes(),
			shmRep.Ops.Sends(), shmRep.Ops.Recvs())
		series = append(series, obs{
			n:   n,
			mpT: float64(mpRep.T()), shmT: float64(shmRep.T()),
			mpE: float64(mpRep.E()), shmE: float64(shmRep.E()),
			agreeExactly: same,
		})
	}

	for _, o := range series {
		checks = append(checks, check(
			fmt.Sprintf("n=%d: both fabrics compute the identical iterate", o.n),
			o.agreeExactly, ""))
	}
	// On this machine's constants (ℓ_e = 4, g_sh_e = 2 per access; the
	// shared variant reads the entire vector through chip-level memory
	// every round while message payloads fly point-to-point) message
	// passing wins time at every size — who-wins is a machine-constant
	// question, which is the model's whole point.
	for _, o := range series {
		checks = append(checks, check(
			fmt.Sprintf("n=%d: message passing faster on these constants", o.n),
			o.mpT < o.shmT, "mp=%.0f shm=%.0f", o.mpT, o.shmT))
	}
	// Both fabrics have linear per-process traffic per round (n−1
	// messages vs n reads), so T over 4× the problem size stays well
	// under the quadratic ratio 16 for both.
	first, last := series[0], series[len(series)-1]
	checks = append(checks,
		check("message-passing T scales sub-quadratically", last.mpT/first.mpT < 8,
			"ratio %.1f", last.mpT/first.mpT),
		check("shared-memory T scales sub-quadratically", last.shmT/first.shmT < 8,
			"ratio %.1f", last.shmT/first.shmT))

	return Result{ID: "fabric", Title: Title("fabric"), Table: t.String(), Checks: checks}
}
