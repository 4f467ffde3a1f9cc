// Asynchronous all-pairs shortest paths: the paper's §4 example of the
// async_exec / async_comm / inter_proc corner of the model, against the
// public stamp API. The shared distance matrix is single-writer/
// multiple-reader (process i owns row i), so no synchronization is
// needed for safety; a heterogeneity experiment shows fast processes
// doing more rounds, which is the paper's argument for asynchrony.
package main

import (
	"fmt"
	"log"

	"repro/stamp"
)

const v = 10 // vertices = STAMP processes

func main() {
	w := makeGraph()

	fmt.Println("homogeneous machine:")
	runAPSP(w, nil)
	fmt.Println("\nheterogeneous machine (process 0 four times slower):")
	slow := make([]float64, v)
	for i := range slow {
		slow[i] = 1
	}
	slow[0] = 4
	runAPSP(w, slow)
}

func runAPSP(w [][]int64, slow []float64) {
	sys := stamp.NewSystem(stamp.Niagara())
	x := stamp.NewRegion[int64](sys, "dist", stamp.Inter, 0, v*v)
	for i := 0; i < v; i++ {
		for j := 0; j < v; j++ {
			//stamplint:allow backdoor: cost-free initialization before the simulation starts
			x.Poke(i*v+j, w[i][j])
		}
	}
	changes := stamp.NewRegion[int64](sys, "changes", stamp.Inter, 0, 1)

	attrs := stamp.Attrs{Dist: stamp.InterProc, Exec: stamp.AsyncExec, Comm: stamp.AsyncComm}
	rounds := make([]int, v)
	// Async epochs: processes iterate freely until the epoch deadline,
	// so a fast process fits more rounds in than a handicapped one —
	// the paper's "faster processors can compute more rounds". An epoch
	// is about ten rounds: one round costs 2v² compute ticks plus
	// ℓ_e + g_sh_e·(v² + v) for reading x and writing x_i, ~424 ticks.
	const epochLen = stamp.Time(4500)
	g := sys.NewGroup("apsp", attrs, v, func(ctx *stamp.Ctx) {
		i := ctx.Index()
		prev := int64(0)
		m := make([]int64, v*v) // this process's copy of x
		oneRound := func() bool {
			changed := false
			ctx.SRound(func() {
				x.ReadRange(ctx, 0, m)   // read x
				for j := 0; j < v; j++ { // x_ij = min_k x_ik + x_kj
					best := m[i*v+j]
					for k := 0; k < v; k++ {
						if d := m[i*v+k] + m[k*v+j]; d < best {
							best = d
						}
					}
					if best < m[i*v+j] {
						x.Write(ctx, i*v+j, best) // write x_i
						changed = true
					}
				}
				ctx.IntOps(int64(2 * v * v))
				if slow != nil && slow[i] > 1 {
					ctx.HoldCost(float64(2*v*v) * (slow[i] - 1))
				}
			})
			rounds[i]++
			return changed
		}
		for {
			deadline := ctx.Now() + epochLen
			changed := false
			for {
				if oneRound() {
					changed = true
				}
				if ctx.Now() >= deadline {
					break
				}
			}
			if changed {
				changes.Write(ctx, 0, changes.Read(ctx, 0)+1)
			}
			// Epoch boundary: the only synchronization, for uniform
			// termination detection.
			ctx.Barrier()
			cnt := changes.Read(ctx, 0)
			ctx.Barrier()
			if cnt == prev {
				return
			}
			prev = cnt
		}
	})

	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}

	// Verify against sequential Floyd–Warshall.
	want := floydWarshall(w)
	for i := 0; i < v; i++ {
		for j := 0; j < v; j++ {
			//stamplint:allow backdoor: cost-free result check after the simulation ends
			if got := x.Peek(i*v + j); got != want[i][j] {
				log.Fatalf("dist[%d][%d] = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
	rep := g.Report()
	fmt.Printf("  correct; T=%d E=%.0f rounds per process: %v\n", rep.T(), rep.E(), rounds)
}

const inf = int64(1) << 40

// makeGraph builds a deterministic sparse digraph with a connectivity
// cycle.
func makeGraph() [][]int64 {
	w := make([][]int64, v)
	for i := range w {
		w[i] = make([]int64, v)
		for j := range w[i] {
			switch {
			case i == j:
				w[i][j] = 0
			case (i*7+j*3)%5 == 0:
				w[i][j] = int64(1 + (i+j)%9)
			default:
				w[i][j] = inf
			}
		}
	}
	for i := 0; i < v; i++ {
		j := (i + 1) % v
		if w[i][j] >= inf {
			w[i][j] = int64(1 + i%4)
		}
	}
	return w
}

func floydWarshall(w [][]int64) [][]int64 {
	d := make([][]int64, v)
	for i := range d {
		d[i] = append([]int64(nil), w[i]...)
	}
	for k := 0; k < v; k++ {
		for i := 0; i < v; i++ {
			for j := 0; j < v; j++ {
				if nd := d[i][k] + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}
