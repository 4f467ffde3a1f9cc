package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestRunUntilPausesAndResumes drives one kernel through windows and
// checks the pause/resume contract: no event at or past the horizon
// dispatches, state is preserved across pauses, and the final window
// completes the run.
func TestRunUntilPausesAndResumes(t *testing.T) {
	k := NewKernel()
	var ticks []Time
	k.Spawn("holder", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Hold(10)
			ticks = append(ticks, p.Now())
		}
	})

	done, err := k.RunUntil(15)
	if done || err != nil {
		t.Fatalf("RunUntil(15) = (%v, %v), want paused", done, err)
	}
	if k.Now() >= 15 {
		t.Fatalf("clock %d advanced past horizon 15", k.Now())
	}
	if want := []Time{10}; !reflect.DeepEqual(ticks, want) {
		t.Fatalf("after first window ticks = %v, want %v", ticks, want)
	}

	done, err = k.RunUntil(25)
	if done || err != nil {
		t.Fatalf("RunUntil(25) = (%v, %v), want paused", done, err)
	}
	if want := []Time{10, 20}; !reflect.DeepEqual(ticks, want) {
		t.Fatalf("after second window ticks = %v, want %v", ticks, want)
	}

	done, err = k.RunUntil(Infinity)
	if !done || err != nil {
		t.Fatalf("RunUntil(Infinity) = (%v, %v), want completion", done, err)
	}
	if want := []Time{10, 20, 30}; !reflect.DeepEqual(ticks, want) {
		t.Fatalf("final ticks = %v, want %v", ticks, want)
	}
	if k.Now() != 30 {
		t.Fatalf("final clock %d, want 30", k.Now())
	}
}

// TestRunUntilPausesAndResumesStepProcs is the test above on the
// stepped kernel path, with a second process parked on a queue across
// every pause: the holder signals it after each hold, and each wake
// must dispatch in the window that owns its time.
func TestRunUntilPausesAndResumesStepProcs(t *testing.T) {
	k := newSteppedKernel()
	q := &WaitQueue{}
	var woke []Time
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 3; i++ {
			q.Wait(p)
			woke = append(woke, p.Now())
		}
	})
	k.Spawn("holder", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Hold(10)
			q.Signal(k)
		}
	})

	for i, horizon := range []Time{15, 25} {
		done, err := k.RunUntil(horizon)
		if done || err != nil {
			t.Fatalf("RunUntil(%d) = (%v, %v), want paused", horizon, done, err)
		}
		if k.Now() >= horizon {
			t.Fatalf("clock %d advanced past horizon %d", k.Now(), horizon)
		}
		if len(woke) != i+1 {
			t.Fatalf("after window %d woke = %v", i, woke)
		}
	}
	done, err := k.RunUntil(Infinity)
	if !done || err != nil {
		t.Fatalf("RunUntil(Infinity) = (%v, %v), want completion", done, err)
	}
	if want := []Time{10, 20, 30}; !reflect.DeepEqual(woke, want) {
		t.Fatalf("final woke = %v, want %v", woke, want)
	}
}

// TestRunUntilDoesNotCoalesceAcrossHorizon pins the fast-path cap: a
// Hold that would jump the clock past the pause horizon must park
// instead, or the shard would dispatch in a window it has not been
// granted.
func TestRunUntilDoesNotCoalesceAcrossHorizon(t *testing.T) {
	k := NewKernel()
	k.Spawn("jumper", func(p *Proc) {
		p.Hold(100)
	})
	done, err := k.RunUntil(50)
	if done || err != nil {
		t.Fatalf("RunUntil(50) = (%v, %v), want paused", done, err)
	}
	if k.Now() >= 50 {
		t.Fatalf("clock %d crossed the horizon 50 (hold coalesced past the pause)", k.Now())
	}
	if done, err = k.RunUntil(Infinity); !done || err != nil {
		t.Fatalf("final window = (%v, %v)", done, err)
	}
	if k.Now() != 100 {
		t.Fatalf("final clock %d, want 100", k.Now())
	}
}

// TestRunUntilEmptyQueueWithLivePausesNotDeadlocks: under a horizon an
// idle-but-live kernel pauses (a neighbour may still post work); the
// same state under Run is a deadlock.
func TestRunUntilEmptyQueueWithLivePauses(t *testing.T) {
	k := NewKernel()
	var q WaitQueue
	k.Spawn("waiter", func(p *Proc) { q.Wait(p) })
	done, err := k.RunUntil(10)
	if done || err != nil {
		t.Fatalf("RunUntil = (%v, %v), want pause", done, err)
	}
	// Post the wake the waiter was promised and finish.
	k.push(20, evCall, nil, func() { q.Broadcast(k) })
	if done, err = k.RunUntil(Infinity); !done || err != nil {
		t.Fatalf("final window = (%v, %v)", done, err)
	}
	if k.Now() != 20 {
		t.Fatalf("final clock %d, want 20", k.Now())
	}
}

// TestShardGroupPingPong bounces a token between two shards through
// Post and checks both clocks and the bounce count.
func TestShardGroupPingPong(t *testing.T) {
	const L = 7
	const bounces = 10
	sg := NewShardGroup(2, L)
	count := 0
	var bounce func(shard int)
	bounce = func(shard int) {
		count++
		if count >= bounces {
			return
		}
		k := sg.Shard(shard)
		sg.Post(shard, 1-shard, k.Now()+L, func() { bounce(1 - shard) })
	}
	sg.Shard(0).Schedule(0, func() { bounce(0) })
	if err := sg.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != bounces {
		t.Fatalf("bounced %d times, want %d", count, bounces)
	}
	// The last bounce lands on shard (bounces-1)%2 at t=(bounces-1)*L.
	if got := sg.Shard((bounces - 1) % 2).Now(); got != (bounces-1)*L {
		t.Fatalf("receiver clock %d, want %d", got, (bounces-1)*L)
	}
}

// TestShardGroupDeadlock: a waiter on shard 0 that no shard ever
// wakes must surface as a global ErrDeadlock naming it, with the other
// shard's completed work intact.
func TestShardGroupDeadlock(t *testing.T) {
	sg := NewShardGroup(2, 5)
	var q WaitQueue
	sg.Shard(0).Spawn("stuck", func(p *Proc) { q.Wait(p) })
	sg.Shard(1).Spawn("fine", func(p *Proc) { p.Hold(30) })
	err := sg.Run()
	var dl *ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck(id=0)" {
		t.Fatalf("blocked = %v, want [stuck(id=0)]", dl.Blocked)
	}
	if dl.At != 30 {
		t.Fatalf("deadlock at t=%d, want 30 (latest shard clock)", dl.At)
	}
}

// TestShardGroupErrorTeardown: a panic on one shard aborts the others;
// parked procs on surviving shards unwind through their deferred
// functions exactly as a sequential error run unwinds them.
func TestShardGroupErrorTeardown(t *testing.T) {
	sg := NewShardGroup(3, 5)
	var q WaitQueue
	unwound := 0
	sg.Shard(0).Spawn("parked", func(p *Proc) {
		defer func() { unwound++ }()
		q.Wait(p)
	})
	sg.Shard(2).Spawn("holder", func(p *Proc) {
		defer func() { unwound++ }()
		p.Hold(1000)
	})
	sg.Shard(1).Spawn("bomb", func(p *Proc) {
		p.Hold(3)
		panic("boom")
	})
	err := sg.Run()
	var pp *ProcPanic
	if !errors.As(err, &pp) || pp.Proc != "bomb" {
		t.Fatalf("Run = %v, want ProcPanic from bomb", err)
	}
	if unwound != 2 {
		t.Fatalf("%d finalizers ran on surviving shards, want 2", unwound)
	}
	// All shards are dead now.
	if _, err := sg.Shard(0).RunUntil(Infinity); err != ErrStopped {
		t.Fatalf("surviving shard not stopped: %v", err)
	}
}

// TestShardGroupPostLookaheadViolationPanics pins the conservative
// safety check: a post closer than the lookahead window is a bug in
// the routing layer and must panic loudly.
func TestShardGroupPostLookaheadViolationPanics(t *testing.T) {
	sg := NewShardGroup(2, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("post inside the lookahead window did not panic")
		}
	}()
	sg.Post(0, 1, 5, func() {})
}

// --- fuzz equivalence vs the sequential kernel -----------------------

// shardPlan is a pre-generated random workload over C chips × P procs:
// every hold and cross-chip send is fixed up front so the identical
// program can run on one sequential kernel and on any shard layout.
type shardPlan struct {
	chips, procs int // procs per chip
	lookahead    Time
	rounds       [][]planRound // [global proc][round]
}

type planRound struct {
	hold Time
	send bool
	dst  int  // global proc index on another chip
	off  Time // arrival offset beyond lookahead
	val  int64
}

func makeShardPlan(rng *rand.Rand, lookahead Time) shardPlan {
	pl := shardPlan{chips: 1 + rng.Intn(4), procs: 1 + rng.Intn(3), lookahead: lookahead}
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
// the time the last receive completed. Receive sums are commutative on
// purpose: cross-chip arrivals landing on the same tick from different
// sources have no defined relative order between layouts.
type planDigest struct {
	End     []Time
	RecvSum []int64
	RecvN   []int
}

// runPlan executes pl on nShards shards (0 = one plain sequential
// kernel, the reference) with the given worker count and returns the
// digest. Chips map to shards contiguously; a cross-chip send becomes
// a direct Schedule on the sequential kernel and a Post between
// different shards.
func runPlan(t *testing.T, pl shardPlan, nShards, workers int) planDigest {
	t.Helper()
	var sg *ShardGroup
	var seqK *Kernel
	kernelOf := func(gi int) *Kernel {
		if sg == nil {
			return seqK
		}
		return sg.Shard(gi / pl.procs * nShards / pl.chips)
	}
	shardOf := func(gi int) int { return gi / pl.procs * nShards / pl.chips }
	if nShards == 0 {
		seqK = NewKernel()
	} else {
		sg = NewShardGroup(nShards, pl.lookahead)
		sg.Workers = workers
	}

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
		queues[dst].Signal(kernelOf(dst))
	}

	for gi := 0; gi < n; gi++ {
		gi := gi
		body := func(p *Proc) {
			for _, r := range pl.rounds[gi] {
				p.Hold(r.hold)
				if r.send {
					at := p.Now() + pl.lookahead + r.off
					dst, val := r.dst, r.val
					if sg != nil && shardOf(dst) != shardOf(gi) {
						sg.Post(shardOf(gi), shardOf(dst), at, func() { deliver(dst, val) })
					} else {
						kernelOf(gi).push(at, evCall, nil, func() { deliver(dst, val) })
					}
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
		}
		kernelOf(gi).Spawn(fmt.Sprintf("p%d", gi), body)
	}

	var err error
	if sg != nil {
		err = sg.Run()
	} else {
		err = seqK.Run()
	}
	if err != nil {
		t.Fatalf("run (shards=%d workers=%d): %v", nShards, workers, err)
	}
	return dig
}

// TestShardEquivalenceFuzz runs randomized cross-chip workloads on the
// sequential kernel and on every shard×worker layout and requires
// identical digests — the sharding analog of the DisableFastPath
// equivalence suite.
func TestShardEquivalenceFuzz(t *testing.T) {
	layouts := [][2]int{{1, 1}, {2, 1}, {2, 2}, {4, 1}, {4, 2}, {4, 4}}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pl := makeShardPlan(rng, Time(5+rng.Intn(20)))
		ref := runPlan(t, pl, 0, 1)
		for _, lw := range layouts {
			nsh, w := lw[0], lw[1]
			if nsh > pl.chips {
				continue
			}
			got := runPlan(t, pl, nsh, w)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("seed %d shards=%d workers=%d diverged:\n got %+v\nwant %+v",
					seed, nsh, w, got, ref)
			}
		}
	}
}

// BenchmarkShard_WindowChurn measures the steady-state per-window
// coordinator overhead: two shards bouncing one prebound post each
// window, one worker. The hot path — pause, floor/horizon, merge, one
// RunUntil per shard — must not allocate (gated via bench-allocgate).
func BenchmarkShard_WindowChurn(b *testing.B) {
	const L = 5
	sg := NewShardGroup(2, L)
	left := 0
	var bounce [2]func()
	for s := 0; s < 2; s++ {
		s := s
		bounce[s] = func() {
			if left--; left <= 0 {
				return
			}
			sg.Post(s, 1-s, sg.Shard(s).Now()+L, bounce[1-s])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	left = b.N + 1
	sg.Shard(0).Schedule(0, bounce[0])
	if err := sg.Run(); err != nil {
		b.Fatal(err)
	}
}
