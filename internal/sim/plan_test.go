package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// chipPlan is a pre-generated random workload over C chips × P procs:
// every hold and cross-chip send is fixed up front so the identical
// program can run more than once.
type chipPlan struct {
	chips, procs int           // procs per chip
	latency      Time          // minimum cross-chip delivery delay
	rounds       [][]planRound // [global proc][round]
}

type planRound struct {
	hold Time
	send bool
	dst  int  // global proc index on another chip
	off  Time // arrival offset beyond the minimum latency
	val  int64
}

func makeChipPlan(rng *rand.Rand, latency Time) chipPlan {
	pl := chipPlan{chips: 1 + rng.Intn(4), procs: 1 + rng.Intn(3), latency: latency}
	if pl.chips == 1 {
		pl.chips = 2 // cross-chip traffic needs at least two chips
	}
	n := pl.chips * pl.procs
	pl.rounds = make([][]planRound, n)
	for i := range pl.rounds {
		r := 3 + rng.Intn(6)
		pl.rounds[i] = make([]planRound, r)
		for j := range pl.rounds[i] {
			pr := planRound{hold: Time(rng.Intn(9))}
			if rng.Intn(3) != 0 {
				for {
					pr.dst = rng.Intn(n)
					if pr.dst/pl.procs != i/pl.procs {
						break
					}
				}
				pr.send = true
				pr.off = Time(rng.Intn(5))
				pr.val = rng.Int63n(1 << 30)
			}
			pl.rounds[i][j] = pr
		}
	}
	return pl
}

// planDigest is everything observable about one run of a plan: per
// proc, the finish time, the number and sum of received values, and
// the time the last receive completed.
type planDigest struct {
	End     []Time
	RecvSum []int64
	RecvN   []int
}

// runPlan executes pl on one kernel and returns the digest. A
// cross-chip send is a kernel callback at least the plan's minimum
// latency after the send instant.
func runPlan(t *testing.T, pl chipPlan) planDigest {
	t.Helper()
	k := NewKernel()

	n := pl.chips * pl.procs
	dig := planDigest{End: make([]Time, n), RecvSum: make([]int64, n), RecvN: make([]int, n)}
	expect := make([]int, n)
	for _, rounds := range pl.rounds {
		for _, r := range rounds {
			if r.send {
				expect[r.dst]++
			}
		}
	}
	queues := make([]WaitQueue, n)
	pending := make([][]int64, n)

	deliver := func(dst int, val int64) {
		pending[dst] = append(pending[dst], val)
		queues[dst].Signal(k)
	}

	for gi := 0; gi < n; gi++ {
		gi := gi
		k.Spawn(fmt.Sprintf("p%d", gi), func(p *Proc) {
			for _, r := range pl.rounds[gi] {
				p.Hold(r.hold)
				if r.send {
					at := p.Now() + pl.latency + r.off
					dst, val := r.dst, r.val
					k.push(at, evCall, nil, func() { deliver(dst, val) })
				}
			}
			for dig.RecvN[gi] < expect[gi] {
				for len(pending[gi]) == 0 {
					queues[gi].Wait(p)
				}
				dig.RecvSum[gi] += pending[gi][0]
				pending[gi] = pending[gi][1:]
				dig.RecvN[gi]++
			}
			dig.End[gi] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return dig
}

// TestShardEquivalenceFuzz runs randomized cross-chip message plans —
// every chip's processes holding, posting deliveries to other chips at
// least the inter-chip latency ahead, then draining their inbox — twice
// per seed, and requires identical, non-empty digests.
// TestFastPathObservationalEquivalence covers holds, timers and yields;
// this adds queue waits woken by timed callbacks.
func TestShardEquivalenceFuzz(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pl := makeChipPlan(rng, Time(5+rng.Intn(20)))
		a, b := runPlan(t, pl), runPlan(t, pl)
		if len(a.End) == 0 || !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d diverged:\nfirst  %+v\nsecond %+v", seed, a, b)
		}
	}
}
