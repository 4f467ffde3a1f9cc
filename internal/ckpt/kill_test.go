package ckpt_test

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/apps/jacobi"
	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/workload"
)

// TestKillAtCommitInstant pins which side wins when Proc.Kill races a
// checkpoint's commit barrier: core failures scheduled for the exact
// consistency instant of a checkpoint generation. The failure events
// were pushed before the run started, so at that instant they carry
// lower sequence numbers than the members' commit wakes and the
// kernel's FIFO same-time order dispatches them FIRST — the members
// die before any of them contributes, and the raced generation's
// checkpoint is NOT written.
func TestKillAtCommitInstant(t *testing.T) {
	// A clean run discovers the consistency instant: the first
	// checkpoint generation's recorded virtual time.
	dirA := t.TempDir()
	ckA, err := ckpt.New(dirA, equivEvery)
	if err != nil {
		t.Fatal(err)
	}
	clean := runJacobi(t, newSys(0), ckA)
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	snap, err := ckpt.Load(filepath.Join(dirA, "jacobi-g000002.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	tc := snap.VTime

	dir := t.TempDir()
	ck, err := ckpt.New(dir, equivEvery)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	sys := newSys(0)
	var evs []fault.CoreFailure
	for c := 0; c < sys.M.Cfg.NumCores(); c++ {
		evs = append(evs, fault.CoreFailure{At: tc, Core: c})
	}
	pl, err := ck.ArmCoreFailures(sys, evs...)
	if err != nil {
		t.Fatal(err)
	}
	ls := workload.NewLinearSystem(equivN, equivSeed)
	if _, err := jacobi.Run(sys, jacobi.Config{System: ls, Iters: equivIters, Ckpt: ck}); err != nil {
		// With every member dead the kernel simply drains; an
		// all-members-lost run completes without error.
		t.Fatalf("run with all cores failed at t=%d: %v", tc, err)
	}
	if got := len(pl.Killed()); got != equivN {
		t.Fatalf("killed %d members, want all %d", got, equivN)
	}
	if pl.Recovery(equivN, false) != fault.RecoverRestart {
		t.Fatalf("recovery without snapshot = %v, want restart", pl.Recovery(equivN, false))
	}
	// Pinned: the kill wins the same-tick race, so the raced
	// generation's checkpoint must not exist.
	if w := ck.Written(); len(w) != 0 {
		t.Fatalf("checkpoint written despite kill at its commit instant: %v", w)
	}
	if _, _, err := ckpt.Latest(dir); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("Latest = %v, want ErrNoCheckpoint", err)
	}
}
