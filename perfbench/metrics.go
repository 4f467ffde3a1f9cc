package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p99", "ms"},
	{"throughput_rps", "req/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run prints, on every workload. A
// workload that does not reach a layer reports 0 for it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	for _, id := range experiments.IDs() {
		defs = append(defs, metricDef{experimentMetric(id), "ms"})
	}
	return append(defs,
		metricDef{"sim.events", "count"},
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"core.charged_ops", "count"},
		metricDef{"memory.reads", "count"},
		metricDef{"memory.writes", "count"},
		metricDef{"memory.stall_ratio", "ratio"},
		metricDef{"msgpass.delivered", "count"},
		metricDef{"stm.commits", "count"},
		metricDef{"stm.aborts", "count"},
		metricDef{"stm.commit_ratio", "ratio"},
		metricDef{"apps.bank.ms", "ms"},
		metricDef{"apps.airline.ms", "ms"},
		metricDef{"workload.gen_ms", "ms"},
		metricDef{"obs.overhead_ratio", "ratio"},
		metricDef{"serve.submit_ms", "ms"},
		metricDef{"serve.queue_ms", "ms"},
		metricDef{"serve.exec_ms", "ms"},
		metricDef{"serve.result_ms", "ms"},
		metricDef{"serve.hit_ms", "ms"},
		metricDef{"serve.ckpt_ms", "ms"},
		metricDef{"serve.events_per_run", "count"},
		metricDef{"serve.stream_kb_per_run", "KB"},
		metricDef{"serve.cache_hit_ratio", "ratio"},
		metricDef{"serve.retained_kb_per_run", "KB"},
		metricDef{"serve.metrics_kb", "KB"},
		metricDef{"serve.metrics_scrape_ms", "ms"},
		metricDef{"go.alloc_mb_per_pass", "MB"},
		metricDef{"go.gc_per_pass", "count"},
		metricDef{"bench.trace_overhead_ratio", "ratio"},
	)
}

func experimentMetric(id string) string { return "experiments." + id + ".ms" }

// result is what one workload run measured.
type result struct {
	attempted, failed int
	metrics           map[string]float64
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// record counts one attempted op, failed when err is non-nil, and says
// on stderr why it failed. A failed op never stops the run.
func (r *result) record(op string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", op, err)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// writeResult prints the result line with every metric of defs, 0 for
// those the workload did not set. A set metric that is declared nowhere
// is a bug in the benchmark and is reported as an error.
func writeResult(w io.Writer, r *result, defs []metricDef) error {
	for name := range r.metrics {
		if !declared(name) {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	line := resultLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func declared(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return true
			}
		}
	}
	return false
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between the closest ranks (rank p/100·(n-1) over the sorted samples),
// or 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// procStatusKB reads one "<field>: <n> kB" line of /proc/<pid>/status.
func procStatusKB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, field+":")
		if !ok {
			continue
		}
		return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
	}
	return 0, fmt.Errorf("/proc/%s/status has no %s", pid, field)
}

// setBatchEndToEnd sets the end-to-end metrics of a workload that runs
// passes over a fixed op list in this process.
func setBatchEndToEnd(m map[string]float64, setups, passes, latencies []float64) error {
	rss, err := selfPeakRSSMB()
	if err != nil {
		return err
	}
	m["setup_s"] = median(setups)
	m["pass_s"] = median(passes)
	m["latency_ms_p50"] = percentile(latencies, 50)
	m["latency_ms_p99"] = percentile(latencies, 99)
	m["throughput_rps"] = ratio(float64(len(latencies))/float64(len(passes)), median(passes))
	m["peak_rss_mb"] = rss
	return nil
}

// selfPeakRSSMB returns this process's peak resident set size in MB.
func selfPeakRSSMB() (float64, error) {
	kb, err := procStatusKB("self", "VmHWM")
	return kb / 1024, err
}
