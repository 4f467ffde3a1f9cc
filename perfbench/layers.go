package main

import (
	"runtime"
	"sync"

	"repro/internal/core"
)

// layerCounts are the work counters the layers below an op publish.
// Every count is a pure function of the op's inputs, so it repeats
// exactly from run to run.
type layerCounts struct {
	events     int64 // sim: kernel events dispatched
	chargedOps int64 // core: operations charged to group members
	memReads   int64 // memory
	memWrites  int64
	memStalled int64 // memory accesses that queued behind a busy location
	delivered  int64 // msgpass: messages delivered
	commits    int64 // stm
	aborts     int64
}

func (c *layerCounts) add(o layerCounts) {
	c.events += o.events
	c.chargedOps += o.chargedOps
	c.memReads += o.memReads
	c.memWrites += o.memWrites
	c.memStalled += o.memStalled
	c.delivered += o.delivered
	c.commits += o.commits
	c.aborts += o.aborts
}

// set records the counts as per-layer metrics.
func (c layerCounts) set(m map[string]float64) {
	m["sim.events"] = float64(c.events)
	m["core.charged_ops"] = float64(c.chargedOps)
	m["memory.reads"] = float64(c.memReads)
	m["memory.writes"] = float64(c.memWrites)
	m["memory.stall_ratio"] = ratio(float64(c.memStalled), float64(c.memReads+c.memWrites))
	m["msgpass.delivered"] = float64(c.delivered)
	m["stm.commits"] = float64(c.commits)
	m["stm.aborts"] = float64(c.aborts)
	m["stm.commit_ratio"] = ratio(float64(c.commits), float64(c.commits+c.aborts))
}

// countSystem reads the public counters of a System whose run has ended.
func countSystem(sys *core.System) layerCounts {
	var c layerCounts
	if sys.SG != nil {
		for i := 0; i < sys.SG.NumShards(); i++ {
			c.events += sys.SG.Shard(i).Dispatched()
		}
	} else {
		c.events = sys.K.Dispatched()
	}
	for _, g := range sys.Groups() {
		o := g.Report().Ops
		c.chargedOps += o.FpOps + o.IntOps +
			o.ReadsIntra + o.ReadsInter + o.WritesIntra + o.WritesInter +
			o.SendsIntra + o.SendsInter + o.RecvsIntra + o.RecvsInter +
			o.TxCommits + o.TxAborts
	}
	for _, rs := range sys.Mem.RegionStats() {
		c.memReads += rs.Reads
		c.memWrites += rs.Writes
		c.memStalled += rs.Stalled
	}
	c.delivered = sys.Net.Delivered()
	c.commits = sys.TM.Commits()
	c.aborts = sys.TM.Aborts()
	return c
}

// systemCapture collects the Systems built while it is on. Registered
// with core.AddGlobalOption, it lets a traced suite pass read the
// counters of the Systems each experiment builds internally.
type systemCapture struct {
	mu      sync.Mutex
	on      bool
	systems []*core.System
}

func (c *systemCapture) option(sys *core.System) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.on {
		c.systems = append(c.systems, sys)
	}
}

func (c *systemCapture) setOn(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.on = on
}

// drain returns the counts of the Systems captured since the last drain
// and lets them go.
func (c *systemCapture) drain() layerCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total layerCounts
	for _, sys := range c.systems {
		total.add(countSystem(sys))
	}
	c.systems = nil
	return total
}

// goRuntime collects Go runtime deltas over plain passes of a traced
// run.
type goRuntime struct {
	allocMB, gcs []float64
}

// bracket reads the runtime's memory statistics now and returns the
// function that reads them again and records the difference.
func (g *goRuntime) bracket() func() {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func() {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		g.allocMB = append(g.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		g.gcs = append(g.gcs, float64(after.NumGC-before.NumGC))
	}
}

func (g *goRuntime) set(m map[string]float64) {
	m["go.alloc_mb_per_pass"] = median(g.allocMB)
	m["go.gc_per_pass"] = median(g.gcs)
}
