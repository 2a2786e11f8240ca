// Command perfbench is the repository benchmark: three closed-loop
// workloads that drive the client path a deployment takes — s4fs or a
// raw session, the s4rpc wire on loopback, the drive, an in-memory
// device — with end-to-end metrics from an untraced run and per-layer
// metrics from a traced one. See README.md in this directory.
//
//	perfbench --workload postmark|forensics|churn --seed N --seconds S --trace 0|1
//
// The last line of standard output is the result object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are reported by an untraced run. Every workload reports
// every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"recovery_s", "s"},
	{"heap_mb", "MB"},
	{"write_amp", "ratio"},
	{"history_bytes_per_retained_byte", "ratio"},
}

// perLayer are reported by a traced run; a layer a workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
	{"read_p99_us", "us"},
	{"hist_read_p50_us", "us"},
	{"hist_read_p99_us", "us"},
	{"error_rate", "ratio"},
	{"trace.ops_per_s_off", "1/s"},
	{"trace.ops_per_s_on", "1/s"},
	{"trace.overhead_share", "ratio"},
	{"s4fs.self_us", "us"},
	{"s4fs.rpcs_per_op", "count"},
	{"s4rpc.self_us", "us"},
	{"s4rpc.call_us", "us"},
	{"s4rpc.overhead_us", "us"},
	{"s4rpc.wire_bytes_per_call", "B"},
	{"s4rpc.retries_per_call", "count"},
	{"go.allocs_per_op", "count"},
	{"core.self_us", "us"},
	{"core.write_us", "us"},
	{"core.sync_us", "us"},
	{"core.read_us", "us"},
	{"core.hist_read_us", "us"},
	{"core.forces_per_write", "count"},
	{"core.syncs_coalesced_ratio", "ratio"},
	{"core.log_appends_per_write", "count"},
	{"core.audit_records_per_op", "count"},
	{"core.block_cache_hit_ratio", "ratio"},
	{"core.walk_entries_per_hist_read", "count"},
	{"core.landmark_hit_ratio", "ratio"},
	{"core.recon_hit_ratio", "ratio"},
	{"core.delta_blocks_per_write", "count"},
	{"core.delta_bytes_saved_per_write", "B"},
	{"core.chain_keyframes_per_write", "count"},
	{"cleaner.self_us", "us"},
	{"cleaner.passes", "count"},
	{"cleaner.busy_ms_per_pass", "ms"},
	{"cleaner.segments_freed_per_pass", "count"},
	{"cleaner.blocks_copied_per_segment_freed", "count"},
	{"cleaner.write_p99_during_pass_us", "us"},
	{"cleaner.write_p99_outside_pass_us", "us"},
	{"recovery.self_ms", "ms"},
	{"recovery.open_ms", "ms"},
	{"recovery.replay_entries", "count"},
	{"recovery.device_reads", "count"},
	{"recovery.index_loads", "count"},
	{"disk.self_us", "us"},
	{"disk.reads_per_op", "count"},
	{"disk.writes_per_op", "count"},
	{"disk.read_bytes_per_op", "B"},
	{"disk.write_bytes_per_op", "B"},
	{"disk.busy_share", "ratio"},
}

var workloadsByName = map[string]func(runCfg) (map[string]float64, error){
	"postmark":  runPostmark,
	"forensics": runForensics,
	"churn":     runChurn,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// runInfo identifies a run; it is printed ahead of the result and heads
// the trace file.
type runInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
}

// execute runs one workload and assembles the result.
func execute(cfg runCfg) (resultOut, error) {
	run, ok := workloadsByName[cfg.workload]
	if !ok {
		return resultOut{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	v, err := run(cfg)
	if err != nil {
		return resultOut{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := resultOut{
		Correct:   cfg.m.mismatches.Load() == 0,
		Attempted: cfg.m.attempted.Load(),
		Failed:    cfg.m.failed.Load(),
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{v[d.name], d.unit}
	}
	return res, nil
}

func main() {
	workload := flag.String("workload", "", "postmark, forensics or churn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its spans")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	// A run that wedges must still end inside its time budget.
	time.AfterFunc(time.Duration(*seconds*float64(time.Second))+150*time.Second, func() {
		fatalf("run did not finish in time")
	})

	info := runInfo{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	cfg := runCfg{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sizes: defaultSizes(), m: newMeter()}
	res, err := execute(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	head, _ := json.Marshal(info)
	if cfg.trace {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatalf("trace dir: %v", err)
		}
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.csv", *workload, *seed))
		if err := cfg.m.tr.write(path, string(head)); err != nil {
			fatalf("write trace: %v", err)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Printf("run %s\n", head)
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
