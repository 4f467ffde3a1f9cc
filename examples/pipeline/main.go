// A three-stage pipeline over transactional bounded buffers,
// demonstrating composable blocking transactions (Retry/OrElse) on the
// public stamp API: stages block — transactionally — when their input
// is empty or their output is full, with no locks or condition
// variables in sight. This is the trans_exec attribute carrying a
// streaming workload.
package main

import (
	"fmt"
	"log"

	"repro/stamp"
)

// buffer is a transactional bounded FIFO.
type buffer struct {
	cap  int64
	size *stamp.TVar[int64]
	head *stamp.TVar[int64]
	data []*stamp.TVar[int64]
}

func newBuffer(sys *stamp.System, name string, capacity int) *buffer {
	b := &buffer{
		cap:  int64(capacity),
		size: stamp.NewTVar(sys, name+"/size", int64(0)),
		head: stamp.NewTVar(sys, name+"/head", int64(0)),
	}
	for i := 0; i < capacity; i++ {
		b.data = append(b.data, stamp.NewTVar(sys, fmt.Sprintf("%s/%d", name, i), int64(0)))
	}
	return b
}

func (b *buffer) put(ctx *stamp.Ctx, v int64) {
	if _, err := ctx.Atomically(func(tx *stamp.Tx) error {
		n := b.size.Get(tx)
		if n >= b.cap {
			tx.Retry() // block until a consumer frees a slot
		}
		h := b.head.Get(tx)
		b.data[(h+n)%b.cap].Set(tx, v)
		b.size.Set(tx, n+1)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
}

func (b *buffer) take(ctx *stamp.Ctx) int64 {
	var out int64
	if _, err := ctx.Atomically(func(tx *stamp.Tx) error {
		n := b.size.Get(tx)
		if n == 0 {
			tx.Retry() // block until a producer fills a slot
		}
		h := b.head.Get(tx)
		out = b.data[h%b.cap].Get(tx)
		b.head.Set(tx, (h+1)%b.cap)
		b.size.Set(tx, n-1)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	return out
}

const items = 24

func main() {
	sys := stamp.NewSystem(stamp.Niagara(),
		stamp.WithContentionManager(stamp.Timestamp{}))

	raw := newBuffer(sys, "raw", 3)
	cooked := newBuffer(sys, "cooked", 3)
	var results []int64

	attrs := stamp.Attrs{Dist: stamp.IntraProc, Exec: stamp.TransExec, Comm: stamp.AsyncComm}
	g := sys.NewGroup("pipeline", attrs, 3, func(ctx *stamp.Ctx) {
		switch ctx.Index() {
		case 0: // producer
			for i := int64(1); i <= items; i++ {
				raw.put(ctx, i)
			}
		case 1: // transformer: square each item
			for i := 0; i < items; i++ {
				v := raw.take(ctx)
				//stamplint:allow sround: async pipeline stages stream items; free-floating charges are the point of this example
				ctx.IntOps(1)
				cooked.put(ctx, v*v)
			}
		case 2: // consumer
			for i := 0; i < items; i++ {
				results = append(results, cooked.take(ctx))
			}
		}
	})

	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}

	for i, v := range results {
		want := int64(i+1) * int64(i+1)
		if v != want {
			log.Fatalf("item %d = %d, want %d", i, v, want)
		}
	}
	rep := g.Report()
	fmt.Printf("pipeline moved %d items in order through 2 bounded buffers\n", len(results))
	fmt.Printf("commits=%d aborts=%d\n", sys.TM.Commits(), sys.TM.Aborts())
	fmt.Printf("group: T=%d E=%.0f P=%.3f\n", rep.T(), rep.E(), rep.Power())
	fmt.Println("first/last:", results[0], results[len(results)-1])
}
