package racedet

import (
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/memory"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the example report goldens")

// runExample builds a fresh traced system, attaches a detector, runs
// the example build spawns and returns the detector plus its canonical
// text.
func runExample(build func(*core.System) (*core.Group, *memory.Region[int64])) (*Detector, string, error) {
	sys := core.NewSystem(machine.Generic(), core.WithObs(obs.NewObserver()))
	d := Attach(sys)
	build(sys)
	if err := sys.Run(); err != nil {
		return nil, "", err
	}
	return d, d.Text(), nil
}

// runRacy runs the racy example (see runExample).
func runRacy(t *testing.T) (*Detector, string) {
	t.Helper()
	d, text, err := runExample(RacyExample)
	if err != nil {
		t.Fatalf("racy example: %v", err)
	}
	return d, text
}

// runFixed runs the fixed example (see runExample).
func runFixed(t *testing.T) (*Detector, string) {
	t.Helper()
	d, text, err := runExample(FixedExample)
	if err != nil {
		t.Fatalf("fixed example: %v", err)
	}
	return d, text
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("report diverged from golden %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestRacyExampleGolden pins the racy example's report byte-for-byte:
// region, word, both access loci (proc, virtual time, S-unit/S-round
// coordinates, span reference) must reproduce exactly on every run.
func TestRacyExampleGolden(t *testing.T) {
	d, got := runRacy(t)
	checkGolden(t, "racy", got)
	r := d.Report()
	if r == nil {
		t.Fatal("racy example reported no race")
	}
	if r.Region != "racy/x" || r.Index != 0 {
		t.Fatalf("race on %s[%d], want racy/x[0]", r.Region, r.Index)
	}
	for _, a := range []Access{r.Prior, r.Racing} {
		if !a.Stamp {
			t.Fatalf("access %v lacks STAMP coordinates", a)
		}
		if a.Span == 0 {
			t.Fatalf("access %v lacks a trace-span reference (tracing was on)", a)
		}
		if !a.InUnit || !a.InRound {
			t.Fatalf("access %v should be inside an open S-unit and S-round", a)
		}
	}
}

// TestFixedExampleGolden pins the barrier-fixed twin's clean verdict.
func TestFixedExampleGolden(t *testing.T) {
	d, got := runFixed(t)
	checkGolden(t, "fixed", got)
	if d.Report() != nil {
		t.Fatalf("fixed example reported a race:\n%s", got)
	}
}

// TestStepModeRacyGolden duplicates TestRacyExampleGolden: the kernel
// has one way to advance time, so every Hold already parks and is
// dispatched from the event heap, and there is no second kernel path to
// hold against the golden.
func TestStepModeRacyGolden(t *testing.T) {
	d, got := runRacy(t)
	checkGolden(t, "racy", got)
	if d.Report() == nil {
		t.Fatal("racy example reported no race")
	}
}

// TestStepModeFixedGolden duplicates TestFixedExampleGolden, for the
// same reason as TestStepModeRacyGolden: the barrier's release edges
// order the write before the read, yielding the clean-run golden.
func TestStepModeFixedGolden(t *testing.T) {
	d, got := runFixed(t)
	checkGolden(t, "fixed", got)
	if d.Report() != nil {
		t.Fatalf("fixed example reported a race:\n%s", got)
	}
}

// TestRacyReportStableAcrossWorkers reruns the racy example on 1, 2
// and 4 concurrent host goroutines and requires the identical report
// every time: detection is a function of the simulated program only,
// never of host scheduling.
func TestRacyReportStableAcrossWorkers(t *testing.T) {
	_, want := runRacy(t)
	for _, workers := range []int{1, 2, 4} {
		got := make([]string, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sys := core.NewSystem(machine.Generic(), core.WithObs(obs.NewObserver()))
				d := Attach(sys)
				RacyExample(sys)
				if err := sys.Run(); err != nil {
					got[w] = "run error: " + err.Error()
					return
				}
				got[w] = d.Text()
			}(w)
		}
		wg.Wait()
		for w, g := range got {
			if g != want {
				t.Fatalf("workers=%d: worker %d report differs\n--- got ---\n%s--- want ---\n%s", workers, w, g, want)
			}
		}
	}
}

// TestOnRaceFiresOnce checks the callback contract: exactly one
// invocation, with the same report the detector retains, and the
// detector frozen afterwards.
func TestOnRaceFiresOnce(t *testing.T) {
	sys := core.NewSystem(machine.Generic())
	d := Attach(sys)
	calls := 0
	d.OnRace = func(r *Report) {
		calls++
		if r == nil {
			t.Error("OnRace called with nil report")
		}
	}
	RacyExample(sys)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("OnRace called %d times, want 1", calls)
	}
	if d.Report() == nil {
		t.Fatal("report not retained")
	}
}

// TestNilDetectorIsNoOp pins the nil-receiver contract every hook
// promises.
func TestNilDetectorIsNoOp(t *testing.T) {
	var d *Detector
	if d.Report() != nil {
		t.Fatal("nil detector has a report")
	}
	if got := d.Text(); got != "racedet: no model-level races detected\n" {
		t.Fatalf("nil detector text: %q", got)
	}
	d.ProcStart(nil, nil) // must not panic
	d.ProcExit(nil)
	d.ProcJoin(nil, nil)
	d.Signal(nil, nil)
	d.BarrierAwait(nil, nil, false)
	d.TxCommit(nil)
	d.MsgRecv(nil, nil, 1)
	if tok := d.MsgSend(nil, nil, nil); tok != 0 {
		t.Fatalf("nil detector issued token %d", tok)
	}
	d.Access("r", 0, 0, nil, 0)
}
