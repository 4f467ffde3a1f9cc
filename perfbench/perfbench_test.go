package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"testing"
	"time"

	"repro/internal/apps/airline"
	"repro/internal/apps/bank"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/stm"
)

// A suite op whose golden has one byte flipped is one failed op.
func TestSuiteGoldenByteFlipFailsOneOp(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", goldenDir, "models.golden"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(golden)
	flipped[len(flipped)/2] ^= 1

	res := newResult()
	res.record("suite/models", suiteOp("models", string(golden)))
	res.record("suite/models", suiteOp("models", string(flipped)))
	if res.attempted != 2 || res.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 2, 1", res.attempted, res.failed)
	}
}

func TestCheckExperimentRejectsFailedClaim(t *testing.T) {
	r := experiments.Result{ID: "x", Title: "t", Table: "row\n", Checks: []experiments.Check{{Name: "claim", Pass: false}}}
	if err := checkExperiment(r, r.String()); err == nil {
		t.Fatal("a result with a failed claim check passed")
	}
	r.Checks[0].Pass = true
	if err := checkExperiment(r, r.String()); err != nil {
		t.Fatal(err)
	}
}

// A bank op checked against a corrupted money total is one failed op.
func TestBankBrokenMoneyTotalFailsOneOp(t *testing.T) {
	in := genSTMInputs(1)
	sys := core.NewSystem(machine.Niagara(), core.WithContentionManager(stm.Timestamp{}))
	r, err := bank.Run(sys, in.bank, bankWorkers, nil)
	if err != nil {
		t.Fatal(err)
	}
	broken := in.bank
	broken.InitBalance++

	res := newResult()
	res.record("bank", checkBank(in.bank, r))
	res.record("bank", checkBank(broken, r))
	if res.attempted != 2 || res.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 2, 1", res.attempted, res.failed)
	}
}

// An airline op checked against a smaller leg capacity than it ran with
// is one failed op.
func TestAirlineOverCapacityFailsOneOp(t *testing.T) {
	in := genSTMInputs(1)
	sys := core.NewSystem(machine.Niagara())
	r, err := airline.Run(sys, in.airline, airAgents, airline.Partial)
	if err != nil {
		t.Fatal(err)
	}
	broken := in.airline
	broken.SeatsPerLeg--

	res := newResult()
	res.record("airline", checkAirline(in.airline, airline.Partial, r))
	res.record("airline", checkAirline(broken, airline.Partial, r))
	if res.attempted != 2 || res.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 2, 1", res.attempted, res.failed)
	}
}

// Every stm-hot op passes its checks, with and without an observer, and
// its counters repeat exactly.
func TestSTMHotOpsPass(t *testing.T) {
	in := genSTMInputs(3)
	for _, op := range stmOps {
		var counts []layerCounts
		for _, ob := range []*obs.Observer{nil, obs.NewObserver(), nil} {
			sys, _, err := op.run(in, ob, nil, 0)
			if err != nil {
				t.Fatalf("%s (observer %v): %v", op.name, ob != nil, err)
			}
			counts = append(counts, countSystem(sys))
		}
		if counts[0] != counts[2] {
			t.Errorf("%s: counts differ between runs: %+v, %+v", op.name, counts[0], counts[2])
		}
		if counts[0].commits == 0 || counts[0].events == 0 {
			t.Errorf("%s: no commits or events: %+v", op.name, counts[0])
		}
	}
}

// A cache hit whose result bytes differ from its primary's is one
// failed op.
func TestMismatchedCacheHitFailsOneOp(t *testing.T) {
	recs := []requestRecord{
		{id: "r1", hash: "h", result: []byte(`{"status":"done","t":1}`)},
		{id: "r2", hash: "h", cached: true, result: []byte(`{"status":"done","t":1}`)},
		{id: "r3", hash: "h", cached: true, result: []byte(`{"status":"done","t":2}`)},
		{id: "r4", hash: "g", result: []byte(`{"status":"done","t":2}`)},
	}
	checkHits(recs)
	res := newResult()
	for _, rec := range recs {
		res.record(rec.id, rec.err)
	}
	if res.attempted != 4 || res.failed != 1 || recs[2].err == nil {
		t.Fatalf("attempted %d, failed %d (r3 error %v); want 4, 1 and an error on r3", res.attempted, res.failed, recs[2].err)
	}
}

func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[99-i] = float64(i + 1)
	}
	for _, c := range []struct {
		xs      []float64
		p, want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 99, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{10, 20}, 25, 12.5},
		{hundred, 50, 50.5},
		{hundred, 99, 99.01},
		{hundred, 100, 100},
	} {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 9, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if ratio(1, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Error("ratio")
	}
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkJSON(t *testing.T) (endToEnd, perLayer []declaredMetric, workloadNames []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd  []declaredMetric `json:"end_to_end"`
		PerLayer  []declaredMetric `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return decl.EndToEnd, decl.PerLayer, workloadNames
}

// Every metric the benchmark prints is declared in BENCHMARK.json, under
// the name and unit it is printed with, and the workloads match.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	e2e, layers, names := loadBenchmarkJSON(t)
	nameSyntax := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, c := range []struct {
		kind     string
		defs     []metricDef
		declared []declaredMetric
	}{{"end_to_end", endToEnd, e2e}, {"per_layer", perLayer, layers}} {
		units := map[string]string{}
		for _, d := range c.declared {
			units[d.Name] = d.Unit
		}
		if len(units) != len(c.declared) || len(c.declared) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics (%d distinct), the benchmark prints %d",
				c.kind, len(c.declared), len(units), len(c.defs))
		}

		res := newResult()
		res.attempted = 1
		for i, d := range c.defs {
			res.metrics[d.name] = float64(i) + 0.5
		}
		var buf bytes.Buffer
		if err := writeResult(&buf, res, c.defs); err != nil {
			t.Fatal(err)
		}
		var line resultLine
		if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if len(line.Metrics) != len(c.defs) {
			t.Errorf("%s: printed %d metrics, want %d", c.kind, len(line.Metrics), len(c.defs))
		}
		for name, v := range line.Metrics {
			if !nameSyntax.MatchString(name) {
				t.Errorf("%s: metric name %q does not match %s", c.kind, name, nameSyntax)
			}
			if unit, ok := units[name]; !ok || unit != v.Unit {
				t.Errorf("%s: printed %s in %q, BENCHMARK.json declares %q (declared: %v)", c.kind, name, v.Unit, unit, ok)
			}
		}
	}

	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark has %d", names, len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, names[i], w.name)
		}
	}
}

func TestWriteResultRejectsUndeclaredMetric(t *testing.T) {
	res := newResult()
	res.record("op", nil)
	res.metrics["no.such.metric"] = 1
	if err := writeResult(&bytes.Buffer{}, res, endToEnd); err == nil {
		t.Fatal("an undeclared metric was printed")
	}
}

func TestPromSums(t *testing.T) {
	text := `# HELP stamp_mem_reads Serialized shared reads per region.
# TYPE stamp_mem_reads gauge
stamp_mem_reads{region="a b"} 3
stamp_mem_reads{region="c"} 4.5
stamp_net_messages_delivered 1e+06
`
	got := promSums(text)
	if got["stamp_mem_reads"] != 7.5 || got["stamp_net_messages_delivered"] != 1e6 || len(got) != 2 {
		t.Fatalf("promSums = %v", got)
	}
}

// The plan is a function of the seed, with the documented mix.
func TestSweepPlan(t *testing.T) {
	a, b, c := sweepPlan(1, sweepRequests), sweepPlan(1, sweepRequests), sweepPlan(2, sweepRequests)
	seen := map[string]bool{}
	var repeats, ckpts int
	for i := range a {
		if !bytes.Equal(a[i].spec, b[i].spec) {
			t.Fatalf("request %d differs between two plans of the same seed", i)
		}
		if seen[string(a[i].spec)] {
			repeats++
		}
		seen[string(a[i].spec)] = true
		if a[i].ckpt {
			ckpts++
		}
	}
	if same := bytes.Equal(a[0].spec, c[0].spec); same {
		t.Error("seeds 1 and 2 start with the same request")
	}
	// Resubmissions repeat their source's ckpt flag, so a fifth of the
	// requests are resubmissions and at least a fifth checkpoint.
	if repeats != len(a)/5 || ckpts < len(a)/5 || ckpts > 2*len(a)/5 {
		t.Errorf("%d of %d requests are resubmissions and %d checkpoint", repeats, len(a), ckpts)
	}
}

func buildStampserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "stampserve")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/stampserve")
	cmd.Env = append(os.Environ(), "GOFLAGS=-buildvcs=false")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building stampserve: %v\n%s", err, out)
	}
	return bin
}

// A short traced round against a real server passes every check, and
// stopping the server reaps it.
func TestSweepRoundAndServerLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots stampserve")
	}
	bin := buildStampserve(t)
	ctx := context.Background()

	plan := sweepPlan(5, 16)
	rd, err := sweepRound(ctx, bin, plan, newSpanLog())
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, rec := range rd.recs {
		if rec.err != nil {
			t.Errorf("%s: %v", rec.id, rec.err)
		}
		if rec.cached {
			hits++
		}
	}
	if hits == 0 || rd.counts.delivered == 0 || rd.hitRatio == 0 {
		t.Errorf("round saw %d hits, %d deliveries, hit ratio %v", hits, rd.counts.delivered, rd.hitRatio)
	}

	srv, err := startServer(ctx, bin)
	if err != nil {
		t.Fatal(err)
	}
	pid := srv.cmd.Process.Pid
	srv.stop()
	if srv.cmd.ProcessState == nil {
		t.Fatal("stop returned before the server was reaped")
	}
	if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Fatalf("server pid %d still exists after stop: %v", pid, err)
	}
}

// A child that exits without the handshake is an error, not a hang, and
// is reaped; so is one whose context is cancelled while it boots.
func TestStartServerFailures(t *testing.T) {
	start := time.Now()
	if _, err := startServer(context.Background(), "/bin/true"); err == nil {
		t.Fatal("a child that printed nothing passed the handshake")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := startServer(ctx, "/bin/sleep"); err == nil {
		t.Fatal("a cancelled boot succeeded")
	}
	if d := time.Since(start); d > bootTimeout {
		t.Fatalf("failed boots took %v", d)
	}
}
