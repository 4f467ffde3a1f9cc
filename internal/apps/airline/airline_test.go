package airline

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

func TestSingleReservationSucceeds(t *testing.T) {
	wl := workload.NewAirline(6, 10, 1, 1)
	sys := core.NewSystem(machine.Niagara())
	res, err := Run(sys, wl, 1, Partial)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[Success] != 1 {
		t.Fatalf("outcomes %v", res.Outcomes)
	}
	if res.SeatsBooked != 3 {
		t.Fatalf("seats booked %d, want 3", res.SeatsBooked)
	}
}

func TestStrictAllOrNothing(t *testing.T) {
	// One seat per leg, two identical itineraries: the second must
	// fail completely and hold no seats.
	wl := workload.Airline{Sectors: 4, SeatsPerLeg: 1,
		Itineraries: []workload.Itinerary{
			{From: 0, Sect1: 1, Sect2: 2, To: 3},
			{From: 0, Sect1: 1, Sect2: 2, To: 3},
		}}
	sys := core.NewSystem(machine.Niagara())
	res, err := Run(sys, wl, 1, Strict)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[Success] != 1 || res.Outcomes[Failed] != 1 {
		t.Fatalf("outcomes %v", res.Outcomes)
	}
	if res.SeatsBooked != 3 {
		t.Fatalf("strict failure leaked seats: %d booked", res.SeatsBooked)
	}
}

func TestPartialKeepsCommittedLegs(t *testing.T) {
	// Leg (1,2) exhausted in advance: the paper's decision keeps the
	// two committing legs and reports partial success.
	wl := workload.Airline{Sectors: 4, SeatsPerLeg: 5,
		Itineraries: []workload.Itinerary{{From: 0, Sect1: 1, Sect2: 2, To: 3}}}
	sys := core.NewSystem(machine.Niagara())
	d := NewDesk(sys.TM, wl)
	d.legs[wl.LegIndex(1, 2)].SetValue(0)
	var verdict Verdict
	var legs int
	sys.NewGroup("agent", DefaultAttrs, 1, func(ctx *core.Ctx) {
		var err error
		verdict, legs, err = Reserve(ctx, d, wl.Itineraries[0], Partial)
		if err != nil {
			t.Errorf("reserve: %v", err)
		}
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if verdict != PartialSuccess || legs != 2 {
		t.Fatalf("verdict %v with %d legs, want partial with 2", verdict, legs)
	}
	if d.SeatsLeft(0, 1) != 4 || d.SeatsLeft(2, 3) != 4 {
		t.Fatal("committed legs not kept")
	}
}

func TestAllLegsFullFails(t *testing.T) {
	wl := workload.Airline{Sectors: 4, SeatsPerLeg: 1,
		Itineraries: []workload.Itinerary{{From: 0, Sect1: 1, Sect2: 2, To: 3}}}
	sys := core.NewSystem(machine.Niagara())
	d := NewDesk(sys.TM, wl)
	for _, leg := range wl.Itineraries[0].Legs() {
		d.legs[wl.LegIndex(leg[0], leg[1])].SetValue(0)
	}
	var verdict Verdict
	sys.NewGroup("agent", DefaultAttrs, 1, func(ctx *core.Ctx) {
		verdict, _, _ = Reserve(ctx, d, wl.Itineraries[0], Partial)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if verdict != Failed {
		t.Fatalf("verdict %v, want failed", verdict)
	}
}

func TestSeatConservationUnderLoad(t *testing.T) {
	for _, policy := range []Policy{Partial, Strict} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			wl := workload.NewAirline(6, 3, 60, 17)
			sys := core.NewSystem(machine.Niagara())
			res, err := Run(sys, wl, 6, policy)
			if err != nil {
				t.Fatal(err) // Run enforces SeatsBooked == LegsCommitted
			}
			total := 0
			for _, n := range res.Outcomes {
				total += n
			}
			if total != len(wl.Itineraries) {
				t.Fatalf("outcome total %d != %d itineraries", total, len(wl.Itineraries))
			}
		})
	}
}

func TestPartialOutperformsStrictOnThroughput(t *testing.T) {
	// As seats run out, the partial policy keeps making progress on
	// individual legs while strict itineraries fail outright — the
	// flexibility §4 highlights. Partial must commit at least as many
	// legs as strict.
	wl := workload.NewAirline(5, 4, 80, 23)
	sysP := core.NewSystem(machine.Niagara())
	p, err := Run(sysP, wl, 8, Partial)
	if err != nil {
		t.Fatal(err)
	}
	sysS := core.NewSystem(machine.Niagara())
	s, err := Run(sysS, wl, 8, Strict)
	if err != nil {
		t.Fatal(err)
	}
	if p.LegsCommitted <= s.LegsCommitted {
		t.Fatalf("partial booked %d legs, strict %d — expected partial > strict under scarcity",
			p.LegsCommitted, s.LegsCommitted)
	}
}

func TestPartialUsesNestedInterProcGroups(t *testing.T) {
	wl := workload.NewAirline(5, 10, 2, 29)
	sys := core.NewSystem(machine.Niagara())
	if _, err := Run(sys, wl, 1, Partial); err != nil {
		t.Fatal(err)
	}
	// agent group + one nested rsrv group per itinerary
	if got := len(sys.Groups()); got != 3 {
		t.Fatalf("groups = %d, want 3 (1 agent + 2 nested)", got)
	}
	nested := sys.Groups()[1]
	if nested.Attrs().Dist != core.InterProc {
		t.Fatal("nested rsrv group not inter_proc")
	}
	if nested.Size() != 3 {
		t.Fatalf("nested group size %d, want 3 legs", nested.Size())
	}
}

func TestVerdictAndPolicyStrings(t *testing.T) {
	if Success.String() != "success" || PartialSuccess.String() != "partial" || Failed.String() != "failed" {
		t.Fatal("verdict strings wrong")
	}
	if Partial.String() != "partial" || Strict.String() != "strict" {
		t.Fatal("policy strings wrong")
	}
}

// TestPolicyByName: every policy's String resolves back to it, and any
// other name is rejected with an error that names both policies.
func TestPolicyByName(t *testing.T) {
	for _, p := range []Policy{Partial, Strict} {
		got, err := PolicyByName(p.String())
		if err != nil || got != p {
			t.Errorf("PolicyByName(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, name := range []string{"", "bulk", "Strict", "Partial"} {
		_, err := PolicyByName(name)
		if err == nil {
			t.Errorf("PolicyByName(%q) accepted", name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "partial") || !strings.Contains(msg, "strict") {
			t.Errorf("PolicyByName(%q) error %q does not name both policies", name, msg)
		}
	}
}

func TestZeroAgentsRejected(t *testing.T) {
	sys := core.NewSystem(machine.Niagara())
	if _, err := Run(sys, workload.NewAirline(4, 1, 1, 1), 0, Partial); err == nil {
		t.Fatal("0 agents accepted")
	}
}

func TestSuccessRate(t *testing.T) {
	r := RunResult{Outcomes: map[Verdict]int{Success: 3, PartialSuccess: 1, Failed: 1}}
	if got := r.SuccessRate(); got != 0.6 {
		t.Fatalf("success rate %g, want 0.6", got)
	}
	empty := RunResult{Outcomes: map[Verdict]int{}}
	if empty.SuccessRate() != 0 {
		t.Fatal("empty success rate not 0")
	}
}
