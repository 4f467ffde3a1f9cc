package ckpt_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
)

// newGenericSys builds a system on the four-chip Generic machine with
// the given event budget.
func newGenericSys(maxEvents int64) *core.System {
	sys := core.NewSystem(machine.Generic())
	sys.K.MaxEvents = maxEvents
	return sys
}

// TestKillRestoreEquivalenceUnderShards is the multi-chip slice of the
// kill/restore fuzz, sharded over host goroutines: at 1, 2 and 4
// shards, each shard concurrently runs the jacobi job on the Generic
// machine uninterrupted and through kill/restore cycles at three
// points, each in its own checkpoint directory, and every outcome must
// equal the lone clean run. Checkpointed runs sharing a process must
// not see each other's state.
func TestKillRestoreEquivalenceUnderShards(t *testing.T) {
	ckClean, err := ckpt.New(t.TempDir(), equivEvery)
	if err != nil {
		t.Fatal(err)
	}
	clean := runJacobi(t, newGenericSys(0), ckClean)
	if clean.err != nil {
		t.Fatal(clean.err)
	}

	d := clean.dispatched
	points := []int64{d / 6, d / 2, 5 * d / 6}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var wg sync.WaitGroup
			for s := 0; s < shards; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if diff := killRestoreCycles(t, clean, points); diff != "" {
						t.Errorf("shard %d of %d: %s", s, shards, diff)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// killRestoreCycles runs the Generic-machine job uninterrupted and then
// killed at each point and restored, and describes the first outcome
// that differs from clean ("" when none does).
func killRestoreCycles(t *testing.T, clean runOutcome, points []int64) string {
	ck, err := ckpt.New(t.TempDir(), equivEvery)
	if err != nil {
		return err.Error()
	}
	if diff := sameRun(clean, runJacobi(t, newGenericSys(0), ck)); diff != "" {
		return "uninterrupted run diverged: " + diff
	}
	for _, kill := range points {
		dir := t.TempDir()
		ckKill, err := ckpt.New(dir, equivEvery)
		if err != nil {
			return err.Error()
		}
		killed := runJacobi(t, newGenericSys(kill), ckKill)
		var lim *sim.ErrEventLimit
		if !errors.As(killed.err, &lim) {
			return fmt.Sprintf("kill at event %d: err = %v, want ErrEventLimit", kill, killed.err)
		}
		ckRes, err := ckpt.Resume(dir, equivEvery)
		if errors.Is(err, ckpt.ErrNoCheckpoint) {
			ckRes, err = ckpt.New(dir, equivEvery)
		}
		if err != nil {
			return err.Error()
		}
		restored := runJacobi(t, newGenericSys(0), ckRes)
		if restored.err != nil {
			return fmt.Sprintf("kill at event %d: restored run failed: %v", kill, restored.err)
		}
		if diff := sameRun(clean, restored); diff != "" {
			return fmt.Sprintf("kill at event %d of %d: restored run diverged: %s", kill, clean.dispatched, diff)
		}
	}
	return ""
}
