package kernels

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/memory"
)

// MatMulAttrs: row-distributed matrix multiply over chip-level shared
// memory; processes read B freely (single-writer rows of C), so
// async_comm with inter_proc distribution.
var MatMulAttrs = core.Attrs{Dist: core.InterProc, Exec: core.AsyncExec, Comm: core.AsyncComm}

// MatMulResult reports a distributed matrix multiplication.
type MatMulResult struct {
	C     [][]float64
	Group *core.Group
}

// MatMul computes C = A·B with p row-block processes over shared
// memory: A's rows stay process-local, B lives in chip shared memory
// (read by everyone), and each process writes its block of C — the
// single-writer/multiple-reader discipline of the paper's APSP example
// applied to dense linear algebra. p must divide n.
func MatMul(sys *core.System, a, b [][]float64, p int) (MatMulResult, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return MatMulResult{}, fmt.Errorf("kernels: need square matrices of equal size")
	}
	if p < 1 || n%p != 0 {
		return MatMulResult{}, fmt.Errorf("kernels: p=%d must divide n=%d", p, n)
	}
	rows := n / p

	bShared := memory.NewRegion[float64](sys.Mem, "matmul/B", memory.Inter, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			//stamplint:allow backdoor: cost-free initialization before the simulation starts
			bShared.Poke(i*n+j, b[i][j])
		}
	}
	cShared := memory.NewRegion[float64](sys.Mem, "matmul/C", memory.Inter, 0, n*n)

	round := func(ctx *core.Ctx) {
		lo := ctx.Index() * rows
		bl := make([]float64, n*n)
		bShared.ReadRange(ctx, 0, bl) // read B once
		for i := lo; i < lo+rows; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += a[i][k] * bl[k*n+j]
				}
				cShared.Write(ctx, i*n+j, s)
			}
		}
		// 2n flops per output element (n mults, n−1 adds ≈ 2n).
		ctx.FpOps(int64(rows * n * 2 * n))
	}

	g := sys.NewGroup("matmul", MatMulAttrs, p, func(ctx *core.Ctx) { ctx.SRound(func() { round(ctx) }) })
	if err := sys.Run(); err != nil {
		return MatMulResult{}, err
	}

	c := make([][]float64, n)
	for i := range c {
		c[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			//stamplint:allow backdoor: cost-free result extraction after the simulation ends
			c[i][j] = cShared.Peek(i*n + j)
		}
	}
	return MatMulResult{C: c, Group: g}, nil
}

// SequentialMatMul is the baseline.
func SequentialMatMul(a, b [][]float64) [][]float64 {
	n := len(a)
	c := make([][]float64, n)
	for i := range c {
		c[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += a[i][k] * b[k][j]
			}
			c[i][j] = s
		}
	}
	return c
}
