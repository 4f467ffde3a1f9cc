package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fixture module is named `repro`, like the real one, so the
// deterministic-package and substrate-package path matching under test
// is exactly the production configuration. Stub core/memory packages
// stand in for the real substrates: the checks match on package path
// and method name, so minimal shapes suffice.
var fixture = map[string]string{
	"go.mod": "module repro\n\ngo 1.24\n",

	// Stub substrates (path-matched by the backdoor/sround checks).
	"internal/core/core.go": `package core

type Ctx struct{}

func (c *Ctx) SUnit(fn func())  { fn() }
func (c *Ctx) SRound(fn func()) { fn() }
func (c *Ctx) IntOps(n int64)   {}
func (c *Ctx) FpOps(n int64)    {}
func (c *Ctx) Barrier()         {}

type Attrs struct{}
type Group struct{}
type System struct{}
type GroupOption struct{}

func (s *System) NewGroup(name string, a Attrs, n int, body func(*Ctx)) *Group { return &Group{} }
func (s *System) NewGroupOpts(name string, a Attrs, n int, body func(*Ctx), opts ...GroupOption) *Group {
	return &Group{}
}
`,

	"internal/memory/memory.go": `package memory

type Region struct{ vals []int64 }

func (r *Region) Peek(i int) int64            { return r.vals[i] }
func (r *Region) Poke(i int, v int64)         { r.vals[i] = v }
func (r *Region) Read(c any, i int) int64     { return r.vals[i] }
func (r *Region) internalUse() int64          { return r.Peek(0) }

type Typed[T any] struct{ vals []T }

func NewRegion[T any](name string, n int) *Typed[T] { return &Typed[T]{vals: make([]T, n)} }
`,

	// Deterministic package: wall clock, global rand, map ranges.
	"internal/sim/sim.go": `package sim

import (
	"math/rand"
	"time"
)

func Bad() int64 {
	t := time.Now()        // finding: determinism
	n := rand.Intn(10)     // finding: determinism
	return t.Unix() + int64(n)
}

func Good(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // fine: seeded generator
	return r.Intn(10)
}

func BadWalk(m map[int]int) int {
	s := 0
	for _, v := range m { // finding: maprange
		s += v
	}
	for i, v := range []int{1, 2} { // fine: slice
		s += i + v
	}
	return s
}

func AllowedWalk(m map[int]int) int {
	s := 0
	//stamplint:allow maprange: summation is order-independent
	for _, v := range m {
		s += v
	}
	return s
}

//stamplint:allow maprange: nothing here to suppress
func Unused() {}

//stamplint:allow maprange
func NoReason() {}

//stamplint:allow nonsense: not a real check
func BadCheck() {}
`,

	// Non-deterministic package: the same constructs are fine here.
	"tools/tools.go": `package tools

import "time"

func Stamp() int64 { return time.Now().Unix() }

func Walk(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}
`,

	// Backdoor + sround call sites.
	"use/use.go": `package use

import (
	"repro/internal/core"
	"repro/internal/memory"
)

func Extract(r *memory.Region) int64 {
	return r.Peek(3) // finding: backdoor
}

func Seed(r *memory.Region) {
	//stamplint:allow backdoor: setup before the run
	r.Poke(0, 1)
}

func Roundless(sys *core.System) {
	sys.NewGroup("bad", core.Attrs{}, 2, func(ctx *core.Ctx) {
		ctx.IntOps(5) // finding: sround (no round anywhere in the body)
	})
}

func ViaVar(sys *core.System, r *memory.Region) {
	body := func(ctx *core.Ctx) {
		_ = r.Read(ctx, 0) // finding: sround (body bound to a var)
	}
	sys.NewGroup("bad2", core.Attrs{}, 2, body)
}

func Structured(sys *core.System) {
	sys.NewGroup("good", core.Attrs{}, 2, func(ctx *core.Ctx) {
		ctx.SUnit(func() {
			ctx.SRound(func() {
				ctx.IntOps(5)
			})
		})
		ctx.Barrier() // uncharged ops outside rounds are fine
	})
}

func Nested(sys *core.System) {
	sys.NewGroup("nested", core.Attrs{}, 2, func(ctx *core.Ctx) {
		ctx.SRound(func() {
			ctx.SRound(func() {}) // finding: sround (nested round)
			ctx.SUnit(func() {})  // finding: sround (unit inside round)
		})
		ctx.SUnit(func() {
			ctx.SUnit(func() {}) // finding: sround (nested unit)
		})
	})
}

type handle struct {
	id   int64
	done chan struct{}
}

func Regions() {
	_ = memory.NewRegion[float64]("ok", 8) // fine: plain data words
	_ = memory.NewRegion[handle]("h", 8)   // finding: ckptsafe (chan field)
	_ = memory.NewRegion[*int64]("p", 8)   // finding: ckptsafe (pointer)
	_ = memory.NewRegion[func()]("f", 8)   // finding: ckptsafe (func value)
	_ = memory.NewRegion[any]("i", 8)      // finding: ckptsafe (interface)
	//stamplint:allow ckptsafe: scratch region is never snapshotted
	_ = memory.NewRegion[*int64]("scratch", 8)
}
`,

	// Determinism: raw concurrency reachable from a group body via the
	// summaries, outside any deterministic package.
	"host/host.go": `package host

import "repro/internal/core"

func spawnHelper() {
	go func() {}()
}

func Reaches(sys *core.System) {
	sys.NewGroup("r", core.Attrs{}, 1, func(ctx *core.Ctx) {
		ctx.SUnit(func() { ctx.SRound(func() { ctx.IntOps(1) }) })
		spawnHelper() // finding: determinism (reaches a raw go via the summary)
	})
}
`,

	// Determinism: direct raw concurrency in a deterministic package.
	"internal/experiments/exp.go": `package experiments

func HostSpawn(done chan struct{}) {
	go func() { done <- struct{}{} }() // findings: determinism (go stmt + send)
	<-done                             // finding: determinism (receive)
}

func Allowed(done chan struct{}) {
	//stamplint:allow determinism: harness-level fan-out outside the simulated run
	<-done
}
`,

	// Chargeflow: uncharged data loops in charged contexts, and a Ctx
	// retained in package state.
	"charge/charge.go": `package charge

import "repro/internal/core"

func Uncharged(ctx *core.Ctx, data []int64) int64 {
	s := int64(0)
	for _, v := range data { // finding: chargeflow (no charge in segment)
		s += v
	}
	return s
}

func ChargedAfter(ctx *core.Ctx, data []int64) int64 {
	s := int64(0)
	for _, v := range data { // fine: charged after the loop, same segment
		s += v
	}
	ctx.IntOps(int64(len(data)))
	return s
}

func NotCharged(data []int64) int64 {
	s := int64(0)
	for _, v := range data { // fine: not a charged context
		s += v
	}
	return s
}

func Allowed(ctx *core.Ctx, vals []int64) int64 {
	var n int64
	//stamplint:allow chargeflow: scan is harness bookkeeping, not modeled work
	for _, v := range vals {
		n += v
	}
	return n
}

var GlobalCtx *core.Ctx

func Retain(ctx *core.Ctx) {
	GlobalCtx = ctx // finding: chargeflow (Ctx retained in package state)
}
`,
}

func writeFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range fixture {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func analyzeFixture(t *testing.T) Result {
	t.Helper()
	dir := writeFixture(t)
	prog, err := LoadProgram(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	return prog.Analyze(Analyzers())
}

// has reports whether a finding for check exists whose position ends
// with file:line.
func has(res Result, check, fileLine string) bool {
	for _, f := range res.Findings {
		if f.Check == check && strings.HasSuffix(f.Pos.Filename+":"+itoa(f.Pos.Line), fileLine) {
			return true
		}
	}
	return false
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestFixtureFindings(t *testing.T) {
	res := analyzeFixture(t)

	want := []struct{ check, site string }{
		{"determinism", "internal/sim/sim.go:9"},         // time.Now
		{"determinism", "internal/sim/sim.go:10"},        // rand.Intn
		{"maprange", "internal/sim/sim.go:21"},           // BadWalk
		{"annotation", "internal/sim/sim.go:39"},         // unused
		{"annotation", "internal/sim/sim.go:42"},         // no reason
		{"annotation", "internal/sim/sim.go:45"},         // unknown check
		{"backdoor", "use/use.go:9"},                     // Peek in Extract
		{"sround", "use/use.go:19"},                      // Roundless body
		{"sround", "use/use.go:25"},                      // ViaVar body
		{"sround", "use/use.go:44"},                      // nested round
		{"sround", "use/use.go:45"},                      // unit inside round
		{"sround", "use/use.go:48"},                      // nested unit
		{"ckptsafe", "use/use.go:60"},                    // chan field
		{"ckptsafe", "use/use.go:61"},                    // pointer element
		{"ckptsafe", "use/use.go:62"},                    // func element
		{"ckptsafe", "use/use.go:63"},                    // interface element
		{"determinism", "host/host.go:12"},               // reaches raw go via summary
		{"determinism", "internal/experiments/exp.go:4"}, // raw go stmt + send (two findings)
		{"determinism", "internal/experiments/exp.go:4"},
		{"determinism", "internal/experiments/exp.go:5"}, // raw receive
		{"chargeflow", "charge/charge.go:7"},             // uncharged data loop
		{"chargeflow", "charge/charge.go:42"},            // Ctx retained in package state
	}
	for _, w := range want {
		if !has(res, w.check, w.site) {
			t.Errorf("missing %s finding at %s", w.check, w.site)
		}
	}
	if len(res.Findings) != len(want) {
		for _, f := range res.Findings {
			t.Logf("finding: %s", f)
		}
		t.Errorf("got %d findings, want %d", len(res.Findings), len(want))
	}
}

func TestFixtureSuppressionAndCounts(t *testing.T) {
	res := analyzeFixture(t)

	// Seeded rand, the non-deterministic tools package, the memory
	// package's internal Peek, and the structured group body must all
	// be clean.
	for _, f := range res.Findings {
		for _, clean := range []string{"tools/tools.go", "memory/memory.go", "core/core.go"} {
			if strings.Contains(f.Pos.Filename, clean) {
				t.Errorf("unexpected finding in clean file: %s", f)
			}
		}
	}

	// The four well-formed, load-bearing annotations must be counted
	// and marked used; the three broken ones counted but not used.
	var used, total int
	for _, a := range res.Annotations {
		total++
		if a.Used {
			used++
		}
	}
	if total != 8 {
		t.Errorf("counted %d annotations, want 8", total)
	}
	if used != 5 {
		t.Errorf("%d annotations marked used, want 5 (maprange + backdoor + ckptsafe + determinism + chargeflow)", used)
	}
}

// TestFactStringIsStable: a fact set names its facts in bit order, so
// a finding whose group body reaches several raw-concurrency facts
// reads the same on every run.
func TestFactStringIsStable(t *testing.T) {
	f := FactSpawnsGoroutine | FactUsesChannel | FactUsesSyncLock
	const want = "spawns-goroutine,uses-channel,uses-sync-lock"
	for i := 0; i < 200; i++ {
		if got := f.String(); got != want {
			t.Fatalf("call %d: %q, want %q", i, got, want)
		}
	}
	if got := Fact(0).String(); got != "none" {
		t.Fatalf("empty fact set %q, want none", got)
	}
}
