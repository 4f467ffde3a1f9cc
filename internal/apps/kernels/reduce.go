// Package kernels is a cookbook of classic parallel algorithms
// expressed as STAMP programs, each with the attribute annotation the
// model prescribes, the §3.1 operation counts for analytical
// prediction, and a sequential baseline for correctness. The paper's §1
// goal is "a framework for algorithms ... so that researchers in
// algorithms and systems can invent and create the best possible
// approaches"; this package is that framework in use beyond the three
// §4 examples.
package kernels

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/sim"
)

// ReduceAttrs: tree reduction is bulk-synchronous message passing —
// synch_comm with log₂(p) S-rounds; intra placement favors the heavy
// message traffic.
var ReduceAttrs = core.Attrs{Dist: core.IntraProc, Exec: core.AsyncExec, Comm: core.SynchComm}

// ReduceResult reports a tree reduction.
type ReduceResult struct {
	Sum    float64
	Rounds int
	Group  *core.Group
}

// Reduce sums `vals` with p = len-padded-to-power-of-two/…; it spawns
// one STAMP process per element block and combines partial sums up a
// binary tree, one S-round per level. p must be a power of two and
// divide len(vals).
func Reduce(sys *core.System, vals []float64, p int) (ReduceResult, error) {
	if p < 1 || p&(p-1) != 0 {
		return ReduceResult{}, fmt.Errorf("kernels: p=%d must be a power of two", p)
	}
	if len(vals) == 0 || len(vals)%p != 0 {
		return ReduceResult{}, fmt.Errorf("kernels: %d values not divisible by p=%d", len(vals), p)
	}
	block := len(vals) / p
	partial := make([]float64, p)
	levels := log2(p)

	body := func(ctx *core.Ctx) {
		i := ctx.Index()
		// Local phase: sum own block (block−1 additions).
		s := 0.0
		for _, v := range vals[i*block : (i+1)*block] {
			s += v
		}
		if block > 1 {
			ctx.FpOps(int64(block - 1))
		}
		// Tree phase: at level k, processes with i mod 2^(k+1) == 0
		// receive from i + 2^k; senders finish after sending.
		active := true
		for k := 0; k < levels; k++ {
			stride := 1 << k
			ctx.SRound(func() {
				if !active {
					return
				}
				if i%(2*stride) == 0 {
					m := ctx.Recv()
					s += m.Payload.(float64)
					ctx.FpOps(1)
				} else {
					ctx.SendTo(i-stride, s)
					active = false
				}
			})
		}
		partial[i] = s
	}

	g := sys.NewGroup("reduce", ReduceAttrs, p, body)
	if err := sys.Run(); err != nil {
		return ReduceResult{}, err
	}
	return ReduceResult{Sum: partial[0], Rounds: levels, Group: g}, nil
}

// SequentialSum is the baseline.
func SequentialSum(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}

// ReduceModel returns the analytical prediction of the tree phase: the
// root's critical path is log₂(p) S-rounds, each with one receive, one
// addition, and the message delay (intra-processor constants when the
// group packs one core).
func ReduceModel(p int, m cost.Machine) cost.Process {
	levels := log2(p)
	var units []cost.Unit
	for k := 0; k < levels; k++ {
		r := cost.Round{
			CFp:        1,
			PA:         p,
			MRa:        1,
			MsgPassing: true,
		}
		units = append(units, cost.Unit{Rounds: []cost.Round{r}})
	}
	return cost.Process{Units: units}
}

// log2 returns ⌈log₂(p)⌉ for a power of two p.
func log2(p int) int {
	n := 0
	for 1<<n < p {
		n++
	}
	return n
}

// CriticalPathT returns the measured time of the whole reduction.
func (r ReduceResult) CriticalPathT() sim.Time { return r.Group.Report().T() }
