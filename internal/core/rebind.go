package core

import (
	"fmt"

	"repro/internal/machine"
)

// Rebind moves the member's simulated process to hardware thread th —
// the mechanical half of a live migration. Machine occupancy transfers
// to the new thread, later compute charges use the new core's
// frequency multiplier, later sends and receives pay the link costs of
// the new coordinates, and the group's placement reflects the move.
// The model costs of the move itself (snapshot write plus state
// transfer, ℓ_e + w·g_sh_e each) are the caller's to charge — the
// adaptive controller (internal/adapt) pays them before rebinding so
// the migration stays analyzable in the §3.1 accounting.
//
// Rebind must be called by the member's own process at a
// barrier-consistent instant, outside any S-unit or S-round: between
// rounds every peer is parked at the same virtual time, so no message
// can be in the middle of being costed against the old coordinates.
// Messages already in flight keep the cost computed at send time, like
// a wire transfer that departed before the move.
func (c *Ctx) Rebind(th machine.ThreadID) {
	if int(th) < 0 || int(th) >= c.sys.M.Cfg.NumThreads() {
		panic(fmt.Sprintf("core: Rebind thread %d out of range", th))
	}
	if c.inUnit || c.inRound {
		panic("core: Rebind inside an S-unit or S-round")
	}
	if th == c.thread {
		return
	}
	c.sys.M.Release(c.thread)
	c.sys.M.Bind(th)
	c.thread = th
	c.g.placement[c.idx] = th
	c.ep.Rebind(th)
}
