package ckpt_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/apps/jacobi"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	equivN     = 8
	equivSeed  = 2
	equivIters = 12
	equivEvery = 2
)

type runOutcome struct {
	vt         sim.Time
	energy     float64
	x          []float64
	iters      int
	dispatched int64
	err        error
}

func newSys(maxEvents int64) *core.System {
	sys := core.NewSystem(machine.Niagara())
	sys.K.MaxEvents = maxEvents
	return sys
}

// runJacobi executes one jacobi run on sys under ck (nil disables
// checkpointing) and returns the observables the equivalence contract
// compares. A kernel MaxEvents budget on sys simulates a crash at an
// arbitrary dispatch.
func runJacobi(t *testing.T, sys *core.System, ck *ckpt.Controller) runOutcome {
	t.Helper()
	defer ck.Close()
	ls := workload.NewLinearSystem(equivN, equivSeed)
	res, err := jacobi.Run(sys, jacobi.Config{System: ls, Iters: equivIters, Ckpt: ck})
	out := runOutcome{vt: sys.K.Now(), dispatched: sys.K.Dispatched(), err: err}
	if err == nil {
		out.energy = res.Report().E()
		out.x = res.X
		out.iters = res.Iters
	}
	return out
}

// sameRun returns "" when the two outcomes are byte-identical in final
// virtual time, energy, iterate and iteration count.
func sameRun(a, b runOutcome) string {
	switch {
	case a.vt != b.vt:
		return fmt.Sprintf("virtual time %d != %d", a.vt, b.vt)
	case math.Float64bits(a.energy) != math.Float64bits(b.energy):
		return fmt.Sprintf("energy %v (%016x) != %v (%016x)",
			a.energy, math.Float64bits(a.energy), b.energy, math.Float64bits(b.energy))
	case a.iters != b.iters:
		return fmt.Sprintf("iters %d != %d", a.iters, b.iters)
	case len(a.x) != len(b.x):
		return fmt.Sprintf("len(x) %d != %d", len(a.x), len(b.x))
	}
	for i := range a.x {
		if math.Float64bits(a.x[i]) != math.Float64bits(b.x[i]) {
			return fmt.Sprintf("x[%d] %v (%016x) != %v (%016x)",
				i, a.x[i], math.Float64bits(a.x[i]), b.x[i], math.Float64bits(b.x[i]))
		}
	}
	return ""
}

// dumpFailure copies the failing checkpoint directory plus the
// equivalence diff into $CKPT_FAIL_DIR (when set) so CI can upload it
// as an artifact.
func dumpFailure(t *testing.T, ckptDir, label, diff string) {
	dst := os.Getenv("CKPT_FAIL_DIR")
	if dst == "" {
		return
	}
	sub := filepath.Join(dst, label)
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Logf("ckpt artifact dump: %v", err)
		return
	}
	ents, _ := os.ReadDir(ckptDir)
	for _, e := range ents {
		if b, err := os.ReadFile(filepath.Join(ckptDir, e.Name())); err == nil {
			os.WriteFile(filepath.Join(sub, e.Name()), b, 0o644)
		}
	}
	os.WriteFile(filepath.Join(sub, "diff.txt"), []byte(diff+"\n"), 0o644)
	t.Logf("failing checkpoint dir copied to %s", sub)
}

// TestKillRestoreEquivalence is the restore-equivalence fuzz: kill a
// checkpointed run at deterministically chosen dispatch counts spread
// over its whole lifetime, resume from the latest on-disk checkpoint,
// run to completion, and require the final virtual time, energy and
// iterate to be byte-identical to an uninterrupted run with the same
// checkpoint interval. The matrix is repeated with the kill/restore
// cycles spread across 1, 2 and 4 host worker goroutines (simulation
// results must not depend on host scheduling).
func TestKillRestoreEquivalence(t *testing.T) {
	ckClean, err := ckpt.New(t.TempDir(), equivEvery)
	if err != nil {
		t.Fatal(err)
	}
	clean := runJacobi(t, newSys(0), ckClean)
	if clean.err != nil {
		t.Fatal(clean.err)
	}

	// Checkpointing must not perturb the computation: the plain run's
	// iterate is bit-identical; only time (and its energy) shifts by the
	// per-checkpoint charge.
	plain := runJacobi(t, newSys(0), nil)
	if plain.err != nil {
		t.Fatal(plain.err)
	}
	for i := range plain.x {
		if math.Float64bits(plain.x[i]) != math.Float64bits(clean.x[i]) {
			t.Fatalf("checkpointing changed the iterate: x[%d] %v != %v", i, clean.x[i], plain.x[i])
		}
	}
	if clean.vt <= plain.vt {
		t.Fatalf("checkpoint charge missing: clean T %d <= plain T %d", clean.vt, plain.vt)
	}

	// Kill points as fixed fractions of the clean run's dispatch count:
	// early (before the first checkpoint), mid-iteration,
	// mid-commit-window, and just before completion.
	d := clean.dispatched
	points := []int64{d / 8, d / 6, d / 3, d / 2, 2 * d / 3, 5 * d / 6, d - 3}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for idx, kill := range points {
						if idx%workers != w {
							continue
						}
						label := fmt.Sprintf("w%d-kill%d", workers, kill)
						dir := t.TempDir()
						ckKill, err := ckpt.New(dir, equivEvery)
						if err != nil {
							t.Error(err)
							continue
						}
						killed := runJacobi(t, newSys(kill), ckKill)
						var lim *sim.ErrEventLimit
						if !errors.As(killed.err, &lim) {
							t.Errorf("kill at event %d: err = %v, want ErrEventLimit", kill, killed.err)
							continue
						}
						ckRes, err := ckpt.Resume(dir, equivEvery)
						if errors.Is(err, ckpt.ErrNoCheckpoint) {
							// Crashed before the first checkpoint: recovery
							// is a from-scratch restart, which must still
							// reproduce the clean run.
							ckRes, err = ckpt.New(dir, equivEvery)
						}
						if err != nil {
							t.Error(err)
							continue
						}
						restored := runJacobi(t, newSys(0), ckRes)
						if restored.err != nil {
							t.Errorf("kill at event %d: restored run failed: %v", kill, restored.err)
							continue
						}
						if diff := sameRun(clean, restored); diff != "" {
							msg := fmt.Sprintf("kill at event %d of %d: restored run diverged from uninterrupted run: %s", kill, d, diff)
							dumpFailure(t, dir, label, msg)
							t.Error(msg)
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestResumeBeforeFirstCheckpoint pins the no-checkpoint recovery
// contract: a crash before the first checkpoint generation leaves
// nothing to restore, and Resume says so with ErrNoCheckpoint rather
// than inventing a fresh run.
func TestResumeBeforeFirstCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ck, err := ckpt.New(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	killed := runJacobi(t, newSys(40), ck)
	var lim *sim.ErrEventLimit
	if !errors.As(killed.err, &lim) {
		t.Fatalf("err = %v, want ErrEventLimit", killed.err)
	}
	if _, err := ckpt.Resume(dir, 4); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("Resume = %v, want ErrNoCheckpoint", err)
	}
}

// TestDoubleCrashRestore verifies a resumed run continues to write the
// later generations, and that a second crash + restore (now from a
// post-resume checkpoint) still reproduces the clean run.
func TestDoubleCrashRestore(t *testing.T) {
	ckClean, err := ckpt.New(t.TempDir(), equivEvery)
	if err != nil {
		t.Fatal(err)
	}
	clean := runJacobi(t, newSys(0), ckClean)
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	dir := t.TempDir()
	ck1, err := ckpt.New(dir, equivEvery)
	if err != nil {
		t.Fatal(err)
	}
	runJacobi(t, newSys(clean.dispatched/3), ck1) // first crash
	ck2, err := ckpt.Resume(dir, equivEvery)
	if err != nil {
		t.Fatal(err)
	}
	gen1 := ck2.ResumedGeneration()
	second := runJacobi(t, newSys(3*clean.dispatched/4), ck2) // second crash
	var lim *sim.ErrEventLimit
	if !errors.As(second.err, &lim) {
		t.Fatalf("second crash err = %v, want ErrEventLimit", second.err)
	}
	ck3, err := ckpt.Resume(dir, equivEvery)
	if err != nil {
		t.Fatal(err)
	}
	if ck3.ResumedGeneration() <= gen1 {
		t.Fatalf("second resume generation %d not past first resume %d (resumed run stopped checkpointing)",
			ck3.ResumedGeneration(), gen1)
	}
	final := runJacobi(t, newSys(0), ck3)
	if final.err != nil {
		t.Fatal(final.err)
	}
	if diff := sameRun(clean, final); diff != "" {
		t.Fatalf("double-crash restore diverged: %s", diff)
	}
}
