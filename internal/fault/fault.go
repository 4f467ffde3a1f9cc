// Package fault implements deterministic fault injection and
// resilience helpers for the STAMP runtime.
//
// The paper's §5 application — measure, detect a violation, re-place
// and continue — presumes a runtime that survives disruption mid-run.
// This package supplies the disruptions and the recovery pieces, all
// deterministic functions of (seed, virtual time), so faulty runs are
// as reproducible as clean ones:
//
//   - Injector decides drop / duplicate / extra-delay per message
//     transfer behind msgpass's FaultInjector hook, from one seeded
//     uniform draw per transfer (splitmix64; decision i depends only on
//     the seed and i).
//   - Plan schedules core failures at chosen virtual times; a failing
//     core kills every process bound to it (sim.Proc.Kill), and the
//     survivors' next synchronization deadlocks deterministically —
//     the disruption signal a controller catches to re-place the work
//     on the remaining cores (sched.AllocateExcluding) and warm-start.
//   - Reliable is a stop-and-wait retransmission protocol over lossy
//     links: per-destination sequence numbers, ack/retransmit with an
//     ack-wait window that doubles up to a cap, receiver-side dedup.
//     Time lost to timed-out waits is charged to obs.CatFault, so the
//     profiler separates recovery overhead from productive waiting.
package fault

import (
	"fmt"

	"repro/internal/msgpass"
	"repro/internal/obs"
	"repro/internal/sim"
)

// splitmix64 advances the state and returns the next output of the
// SplitMix64 generator — tiny, uniform and fully deterministic by call
// order, which is all fault decisions need.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Config parameterizes an Injector.
type Config struct {
	// Seed fixes the decision stream; equal seeds and equal transfer
	// sequences give bit-equal fault schedules.
	Seed int64
	// DropRate, DupRate and DelayRate are per-transfer probabilities in
	// [0,1], evaluated in that priority order from a single uniform
	// draw (so their sum must be ≤ 1).
	DropRate, DupRate, DelayRate float64
	// DelayTicks is the extra in-flight latency of a delayed message.
	DelayTicks sim.Time
}

func (c Config) validate() {
	sum := 0.0
	for _, r := range []float64{c.DropRate, c.DupRate, c.DelayRate} {
		if r < 0 || r > 1 {
			panic(fmt.Sprintf("fault: rate %g outside [0,1]", r))
		}
		sum += r
	}
	if sum > 1 {
		panic(fmt.Sprintf("fault: rates sum to %g > 1", sum))
	}
	if c.DelayTicks < 0 {
		panic("fault: negative DelayTicks")
	}
}

// Injector is a seeded msgpass.FaultInjector: every transfer consumes
// one uniform draw, classified against the configured rates. Decision
// i is a pure function of (Seed, i) — independent of wall clock, host
// scheduling and message contents — so a fixed program sees a fixed
// fault schedule.
type Injector struct {
	cfg   Config
	state uint64

	transfers, drops, dups, delays int64
}

// NewInjector returns an injector with cfg's rates and seed.
func NewInjector(cfg Config) *Injector {
	cfg.validate()
	return &Injector{cfg: cfg, state: uint64(cfg.Seed)}
}

// OnSend implements msgpass.FaultInjector.
func (in *Injector) OnSend(src, dst *msgpass.Endpoint, m *msgpass.Message) (msgpass.FaultAction, sim.Time) {
	in.transfers++
	u := float64(splitmix64(&in.state)>>11) / (1 << 53) // uniform [0,1)
	switch {
	case u < in.cfg.DropRate:
		in.drops++
		return msgpass.FaultDrop, 0
	case u < in.cfg.DropRate+in.cfg.DupRate:
		in.dups++
		return msgpass.FaultDup, 0
	case u < in.cfg.DropRate+in.cfg.DupRate+in.cfg.DelayRate:
		in.delays++
		return msgpass.FaultDelay, in.cfg.DelayTicks
	}
	return msgpass.FaultNone, 0
}

// InjectorState is the injector's full checkpointable state: the PRNG
// position plus the decision counters. Restoring it replays the exact
// decision stream the original run would have seen from that point.
type InjectorState struct {
	State     uint64
	Transfers int64
	Drops     int64
	Dups      int64
	Delays    int64
}

// State returns the injector state for checkpointing.
func (in *Injector) State() InjectorState {
	return InjectorState{State: in.state, Transfers: in.transfers, Drops: in.drops, Dups: in.dups, Delays: in.delays}
}

// Restore overwrites the injector state from a checkpoint. The
// restoring injector must have been built with the same Config.
func (in *Injector) Restore(s InjectorState) {
	in.state = s.State
	in.transfers, in.drops, in.dups, in.delays = s.Transfers, s.Drops, s.Dups, s.Delays
}

// Transfers returns the number of decisions made.
func (in *Injector) Transfers() int64 { return in.transfers }

// Drops returns the number of transfers classified FaultDrop.
func (in *Injector) Drops() int64 { return in.drops }

// Dups returns the number of transfers classified FaultDup.
func (in *Injector) Dups() int64 { return in.dups }

// Delays returns the number of transfers classified FaultDelay.
func (in *Injector) Delays() int64 { return in.delays }

// Record dumps the injector's decision counters into a metrics
// registry as stamp_fault_* gauges.
func (in *Injector) Record(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Gauge("stamp_fault_transfers", "Message transfers seen by the fault injector.").Set(float64(in.transfers))
	r.Gauge("stamp_fault_drops", "Messages dropped by fault injection.").Set(float64(in.drops))
	r.Gauge("stamp_fault_dups", "Messages duplicated by fault injection.").Set(float64(in.dups))
	r.Gauge("stamp_fault_delays", "Messages delayed by fault injection.").Set(float64(in.delays))
}
