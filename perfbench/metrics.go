package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, reported by
// every workload from the untraced child. An op is one ALS sweep in
// nell2-mem and ooc-order4 and one client job, including any re-upload,
// in spblockd-mix.
var endToEnd = []metricDef{
	{"setup_s", "s"},       // median over the child's set-ups: the time before the first op
	{"op_p50_ms", "ms"},    // op latency, median over the run's ops
	{"op_p90_ms", "ms"},    // op latency, 90th percentile (runs are sized for >= 100 ops)
	{"ops_per_s", "1/s"},   // completed ops over the timed wall time
	{"mem_peak_mb", "MiB"}, // largest live heap of the measured child at rest (see heapPeak)
}

// perLayer are the traced run's metrics, named after the modules they
// time. Every workload reports every one; a layer the workload bypasses
// reads 0, which is the prediction for a change to that layer.
var perLayer = []metricDef{
	{"nmode.parse_s", "s"},
	{"nmode.parse_mb_per_s", "MB/s"},
	{"engine.build_s", "s"},
	{"mttkrp.mode0_p50_ms", "ms"},
	{"mttkrp.mode1_p50_ms", "ms"},
	{"mttkrp.mode2_p50_ms", "ms"},
	{"mttkrp.mode3_p50_ms", "ms"},
	{"mttkrp.ns_per_nnz", "ns"},
	{"mttkrp.eq1_gbs", "GB/s"}, // Equation 1 traffic estimate over measured kernel time: computed, not counted
	{"sched.imbalance", "ratio"},
	{"sched.steals", "count"},
	{"sched.parallel_eff", "ratio"},
	{"als.solve_p50_ms", "ms"},
	{"als.mttkrp_share", "frac"},
	{"ooc.stage_s", "s"},
	{"ooc.iowait_frac", "frac"},
	{"ooc.prefetch_ms_per_sweep", "ms"},
	{"ooc.overlap_frac", "frac"},
	{"ooc.slots", "count"},
	{"ooc.resident_mb", "MiB"},
	{"ooc.parity_bitexact", "bool"},
	{"server.upload_p50_ms", "ms"},
	{"server.service_p50_ms", "ms"},
	{"server.wait_p50_ms", "ms"},
	{"server.hit_ratio", "frac"},
	{"server.reuploads_per_job", "ratio"},
	{"server.builds_per_job", "ratio"},
	{"server.evictions", "count"},
	{"server.fingerprint_ms", "ms"},
	{"self.als_share", "frac"},
	{"self.mttkrp_share", "frac"},
	{"self.server_share", "frac"},
	{"self.client_share", "frac"},
	{"trace.overhead_frac", "frac"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// host identifies the machine and toolchain a record was taken on, so
// that records from different hosts or settings are never compared.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func hostFingerprint() host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is everything one benchmark run knew: where and with what it
// ran, which inputs it measured, and what each child reported. It is
// printed before the result line and kept under the work directory.
type record struct {
	Host     host       `json:"host"`
	Workload string     `json:"workload"`
	Why      string     `json:"why"`
	Seed     int64      `json:"seed"`
	Seconds  float64    `json:"seconds"`
	Traced   bool       `json:"traced"`
	Scale    string     `json:"scale"`
	Params   any        `json:"params"`
	Inputs   []inputID  `json:"inputs"`
	GenS     float64    `json:"generate_s"`
	Runs     []childRun `json:"runs"`
	Result   result     `json:"result"`
}

// heapPeak tracks the measured child's largest live heap at rest:
// each sample forces a collection and reads the live bytes it marked.
// The workloads sample after every set-up and after the timed ops.
// Resident set size is not used: GC pacing makes ru_maxrss bimodal on
// nell2-mem (about 175 or 224 MiB for the same code and input), and
// heap fragmentation moves even the RSS measured right after
// debug.FreeOSMemory by up to 25% on ooc-order4.
type heapPeak struct{ mb float64 }

func (h *heapPeak) sample() {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	h.mb = max(h.mb, float64(s[0].Value.Uint64())/(1<<20))
}
