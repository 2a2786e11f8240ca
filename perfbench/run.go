package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"s4/internal/core"
)

// sizes fixes how much work a run does. Real runs use defaultSizes;
// tests shrink everything.
type sizes struct {
	setupReps int // setups per run; setup_s is their median
	opens     int // timed crash restarts; recovery_s is their median

	pmFiles   int   // postmark file pool
	pmWarmOps int64 // postmark transactions before the window

	foObjects int   // forensics objects (8 blocks each)
	foDepth   int   // single-block overwrites per object
	foWarmOps int64 // forensics reads before the window

	chObjects    int   // churn objects per client (8 blocks each)
	chWindowOps  int   // churn window, in mutation steps
	chCleanEvery int   // churn: acknowledged writes between cleaner passes
	chWarmOps    int64 // churn ops before the window
}

// The warm-ups each take about 2 s on a 2-core machine.
func defaultSizes() sizes {
	return sizes{
		setupReps: 3, opens: 5,
		pmFiles: 500, pmWarmOps: 2000,
		foObjects: 64, foDepth: 320, foWarmOps: 25000,
		chObjects: 8, chWindowOps: 2000, chCleanEvery: 256, chWarmOps: 5000,
	}
}

// runCfg is one invocation.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	m        *meter
}

// snap is the counters a window's metrics are deltas of.
type snap struct {
	st        core.Stats
	dev       devCounts
	calls     int64
	wire      int64
	writes    int64
	histReads int64
	layers    map[string]agg
}

func (r *rig) snap() snap {
	m := r.m
	return snap{
		st: r.drv.GetStats(), dev: r.dev.counts(),
		calls: m.calls.Load(), wire: m.wireBytes.Load(),
		writes: m.writesAcked.Load(), histReads: m.histReads.Load(),
		layers: m.tr.layerTotals(),
	}
}

// windowResult is what one measured window saw.
type windowResult struct {
	cfg runCfg
	r   *rig
	windowTimes
	a, b    snap
	retries int64
	heap    float64 // heap_mb, taken at the end of the warm-up
}

// loop is a workload's closed loop as measure runs it.
type loop struct {
	// warmOps ops run before the window. The clients then park while
	// the heap is read and paused runs, so both see the drive after a
	// fixed number of ops and not after however many fit in the time.
	warmOps int64
	// records is the size in bytes of the bench's own records that grew
	// since setup; heap_mb leaves it out.
	records func() int64
	// paused, if set, runs while the clients are parked. The drive is
	// idle, so its device holds a crash image cut at a fixed op count.
	paused func() error
	// body is one client's loop. It calls next before each op and
	// returns once next reports false.
	body func(c *client, next func() bool)
}

// measure runs l.body on one goroutine per client: a warm-up of
// l.warmOps ops, a pause, then the measured window. It waits for every
// client to return.
func measure(cfg runCfg, r *rig, l loop) (*windowResult, error) {
	w := &windowResult{cfg: cfg, r: r}
	m := cfg.m
	var done sync.WaitGroup
	var started atomic.Int64
	var stopped atomic.Bool
	resume := make(chan struct{})
	next := func() bool {
		if started.Add(1) > l.warmOps {
			<-resume
		}
		return !stopped.Load()
	}
	m.running.Store(true)
	for _, c := range r.clients {
		done.Add(1)
		go func() {
			defer done.Done()
			l.body(c, next)
		}()
	}
	finish := func() {
		stopped.Store(true)
		select {
		case <-resume:
		default:
			close(resume)
		}
		done.Wait()
		m.running.Store(false)
	}
	// Each client asks for one op past the warm-up and parks there.
	for started.Load() < l.warmOps+int64(len(r.clients)) {
		time.Sleep(time.Millisecond)
	}
	w.heap = heapMB(r, l.records())
	if l.paused != nil {
		if err := l.paused(); err != nil {
			finish()
			return nil, err
		}
		// The restarts' drives are garbage now. Collect them here, so
		// the window neither sweeps them nor starts with a heap goal
		// set while they were live.
		runtime.GC()
	}
	w.a = r.snap()
	retries0 := r.retries()
	close(resume)
	w.windowTimes = m.window(cfg.seconds, cfg.trace)
	finish()
	for _, c := range r.clients {
		c.merge()
	}
	w.b = r.snap()
	w.retries = r.retries() - retries0
	return w, nil
}

// metrics derives every metric the window can give. Workloads add the
// ones that depend on their own bookkeeping.
func (w *windowResult) metrics() map[string]float64 {
	m := w.cfg.m
	v := map[string]float64{"heap_mb": w.heap}
	ops0, ops1 := float64(m.ops[0].Load()), float64(m.ops[1].Load())
	ops := ops0 + ops1
	v["ops_per_s"] = median(w.rates[phUntraced])
	if w.cfg.trace {
		off := v["ops_per_s"]
		on := median(w.rates[phTraced])
		v["trace.ops_per_s_off"] = off
		v["trace.ops_per_s_on"] = on
		v["trace.overhead_share"] = ratio(off-on, off)
	}
	lat := &m.lat[phUntraced]
	v["read_p50_us"] = pct(lat[clsRead], 50)
	v["read_p99_us"] = pct(lat[clsRead], 99)
	v["write_p50_us"] = pct(lat[clsWrite], 50)
	v["write_p99_us"] = pct(lat[clsWrite], 99)
	v["hist_read_p50_us"] = pct(lat[clsHist], 50)
	v["hist_read_p99_us"] = pct(lat[clsHist], 99)
	v["cleaner.write_p99_during_pass_us"] = pct(m.wDur[phUntraced][1], 99)
	v["cleaner.write_p99_outside_pass_us"] = pct(m.wDur[phUntraced][0], 99)
	v["error_rate"] = ratio(float64(m.failed.Load()), float64(m.attempted.Load()))

	calls := float64(w.b.calls - w.a.calls)
	writes := float64(w.b.writes - w.a.writes)
	hist := float64(w.b.histReads - w.a.histReads)
	v["s4fs.rpcs_per_op"] = ratio(calls, ops)
	v["s4rpc.wire_bytes_per_call"] = ratio(float64(w.b.wire-w.a.wire), calls)
	v["s4rpc.retries_per_call"] = ratio(float64(w.retries), calls)
	v["go.allocs_per_op"] = ratio(float64(w.allocs[phUntraced]), ops0)

	// Layer self time per op, from the traced slices.
	layer := func(l string) agg {
		a, b := w.a.layers[l], w.b.layers[l]
		return agg{n: b.n - a.n, durNs: b.durNs - a.durNs, selfN: b.selfN - a.selfN}
	}
	for _, l := range []string{"s4fs", "s4rpc", "core", "cleaner", "disk"} {
		v[l+".self_us"] = ratio(float64(layer(l).selfN)/1e3, ops1)
	}
	rpc := layer("s4rpc")
	v["s4rpc.call_us"] = ratio(float64(rpc.durNs)/1e3, float64(rpc.n))
	v["s4rpc.overhead_us"] = ratio(float64(rpc.selfN)/1e3, float64(rpc.n))
	v["disk.busy_share"] = ratio(float64(layer("disk").durNs), float64(w.spent[phTraced].Nanoseconds()))
	for name, key := range map[string]string{
		"core.Write": "core.write_us", "core.Sync": "core.sync_us",
		"core.Read": "core.read_us", "core.HistRead": "core.hist_read_us",
	} {
		g := m.tr.named(name)
		v[key] = ratio(float64(g.durNs)/1e3, float64(g.n))
	}

	s0, s1 := &w.a.st, &w.b.st
	d := func(f func(*core.Stats) int64) float64 { return float64(f(s1) - f(s0)) }
	v["core.forces_per_write"] = ratio(d(func(s *core.Stats) int64 { return s.DeviceForces }), writes)
	batches := d(func(s *core.Stats) int64 { return s.CommitBatches })
	coalesced := d(func(s *core.Stats) int64 { return s.SyncsCoalesced })
	v["core.syncs_coalesced_ratio"] = ratio(coalesced, batches+coalesced)
	v["core.log_appends_per_write"] = ratio(d(func(s *core.Stats) int64 { return s.LogAppends }), writes)
	v["core.audit_records_per_op"] = ratio(d(func(s *core.Stats) int64 { return s.AuditRecords }), ops)
	hits := d(func(s *core.Stats) int64 { return s.CacheHits })
	v["core.block_cache_hit_ratio"] = ratio(hits, hits+d(func(s *core.Stats) int64 { return s.CacheMisses }))
	v["core.walk_entries_per_hist_read"] = ratio(d(func(s *core.Stats) int64 { return s.HistoryWalkEntries }), hist)
	rhits := d(func(s *core.Stats) int64 { return s.ReconCacheHits })
	walks := d(func(s *core.Stats) int64 { return s.ReconCacheMisses })
	v["core.recon_hit_ratio"] = ratio(rhits, rhits+walks)
	v["core.landmark_hit_ratio"] = ratio(d(func(s *core.Stats) int64 { return s.LandmarkHits }), walks)
	v["core.delta_blocks_per_write"] = ratio(d(func(s *core.Stats) int64 { return s.DeltaBlocksWritten }), writes)
	v["core.delta_bytes_saved_per_write"] = ratio(d(func(s *core.Stats) int64 { return s.DeltaBytesSaved }), writes)
	v["core.chain_keyframes_per_write"] = ratio(d(func(s *core.Stats) int64 { return s.ChainKeyframes }), writes)

	dev := w.b.dev.sub(w.a.dev)
	v["disk.reads_per_op"] = ratio(float64(dev.reads), ops)
	v["disk.writes_per_op"] = ratio(float64(dev.writes), ops)
	v["disk.read_bytes_per_op"] = ratio(float64(dev.readBytes), ops)
	v["disk.write_bytes_per_op"] = ratio(float64(dev.writeBytes), ops)
	return v
}
