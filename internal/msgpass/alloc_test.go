package msgpass

import (
	"testing"

	"repro/internal/agenttest"
	"repro/internal/machine"
	"repro/internal/sim"
)

// TestSendRecvZeroAlloc pins the delivery pool's steady state: with no
// fault injector, probe or delivery recorder installed, a Send and the
// Recv that drains it allocate nothing — the message is never boxed,
// and the delivery record and its bound callback are recycled.
func TestSendRecvZeroAlloc(t *testing.T) {
	k, net := rig(machine.Niagara())
	ep := net.NewEndpoint("self", 0)
	var avg float64
	k.Spawn("p", func(p *sim.Proc) {
		a := agenttest.New(p, 0)
		for i := 0; i < 64; i++ { // warm the pool, inbox and event heap
			ep.Send(a, ep, 1)
			ep.Recv(a)
		}
		avg = testing.AllocsPerRun(500, func() {
			ep.Send(a, ep, 1)
			ep.Recv(a)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Fatalf("Send→Recv allocates %.2f/run, want 0", avg)
	}
}
