package sim

import "testing"

// BenchmarkKernel_HoldLoop measures the hot dispatch path of the
// simulator: a single process repeatedly advancing its clock. Its wake
// is always the next event, so each Hold is one heap push and pop and
// park returns in place without a coroutine switch; the benchmark
// bounds the cost of charging one model operation.
func BenchmarkKernel_HoldLoop(b *testing.B) {
	k := NewKernel()
	k.Spawn("spin", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Hold(1)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernel_PingPong measures the full park → heap → resume
// round-trip: two processes alternating through semaphores, so every
// round costs two wake events and two handoffs, each a yield to Run's
// trampoline and a resume of the other coroutine.
func BenchmarkKernel_PingPong(b *testing.B) {
	k := NewKernel()
	sa := NewSemaphore(k, 0)
	sb := NewSemaphore(k, 0)
	k.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			sa.Release()
			sb.Acquire(p)
		}
	})
	k.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			sa.Acquire(p)
			sb.Release()
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernel_Spawn measures process creation: spawn, one hold,
// join. Each child runs on the coroutine the previous child returned,
// so no goroutine (or stack) is created per child.
func BenchmarkKernel_Spawn(b *testing.B) {
	k := NewKernel()
	k.Spawn("root", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c := k.Spawn("child", func(c *Proc) {
				c.Hold(1)
			})
			p.Join(c)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernel_TimerDrain measures kernel-context callbacks: schedule
// a timer, hold past it, repeat — every hold's park dispatches a
// callback before its own wake.
func BenchmarkKernel_TimerDrain(b *testing.B) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			k.Schedule(1, nopFn)
			p.Hold(2)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// nopFn is package-level so scheduling it never allocates a closure.
var nopFn = func() {}
