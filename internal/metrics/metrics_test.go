package metrics

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"spblock/internal/roofline"
)

func TestEqBytes(t *testing.T) {
	// One walk, rank 32, 100 nnz + 20 fibers:
	// 8 * (2*1*(120) + 32*120) = 8 * (240 + 3840) = 32640.
	if got := EqBytes(100, 20, 32, 1); got != 32640 {
		t.Fatalf("EqBytes = %d, want 32640", got)
	}
	// strips < 1 clamps to one walk.
	if EqBytes(100, 20, 32, 0) != EqBytes(100, 20, 32, 1) {
		t.Fatal("strips=0 must price as one walk")
	}
	// Two strips re-read the index terms but stream the factors once:
	// 8 * (2*2*120 + 32*120) = 8 * (480 + 3840) = 34560.
	if got := EqBytes(100, 20, 32, 2); got != 34560 {
		t.Fatalf("EqBytes strips=2 = %d, want 34560", got)
	}
}

func TestCollectorAccumulates(t *testing.T) {
	var c Collector
	c.SizeWorkers(2)
	c.SetPerRun(PerRun{NNZ: 100, Fibers: 20, Blocks: 4, Strips: 2, BytesEst: 1000})
	start := time.Now().Add(-time.Millisecond)
	c.EndRun(start)
	c.EndRun(start)
	c.AddWorkerTime(0, 3*time.Millisecond)
	c.AddWorkerTime(1, time.Millisecond)

	s := c.Snapshot()
	if s.Runs != 2 || s.NNZ != 200 || s.Fibers != 40 || s.Blocks != 8 || s.Strips != 4 || s.BytesEst != 2000 {
		t.Fatalf("totals wrong: %+v", s)
	}
	if s.WallNS < 2*time.Millisecond.Nanoseconds() {
		t.Fatalf("wall ns %d too small", s.WallNS)
	}
	if len(s.WorkerNS) != 2 || s.WorkerNS[0] != 3e6 || s.WorkerNS[1] != 1e6 {
		t.Fatalf("worker buckets wrong: %v", s.WorkerNS)
	}
	// max/mean = 3ms / 2ms = 1.5.
	if im := s.Imbalance(); im != 1.5 {
		t.Fatalf("imbalance = %v, want 1.5", im)
	}
	if s.NsPerRun() != s.WallNS/2 {
		t.Fatalf("ns/run = %d", s.NsPerRun())
	}

	// Snapshot is a copy: mutating the collector afterwards must not
	// change it.
	c.EndRun(start)
	if s.Runs != 2 {
		t.Fatal("snapshot aliased collector state")
	}

	c.Reset()
	s = c.Snapshot()
	if s.Runs != 0 || s.NNZ != 0 || s.WallNS != 0 || s.WorkerNS[0] != 0 || s.WorkerNS[1] != 0 {
		t.Fatalf("reset incomplete: %+v", s)
	}
	// Reset keeps the per-run deltas: the next run still counts.
	c.EndRun(start)
	if got := c.Snapshot(); got.NNZ != 100 {
		t.Fatalf("per-run deltas lost on reset: %+v", got)
	}
}

func TestCollectorSequentialBucket(t *testing.T) {
	var c Collector
	c.SizeWorkers(0) // clamps to one bucket
	c.SetPerRun(PerRun{NNZ: 10})
	c.EndRun(time.Now().Add(-time.Millisecond))
	s := c.Snapshot()
	if len(s.WorkerNS) != 1 || s.WorkerNS[0] <= 0 {
		t.Fatalf("sequential bucket not fed from EndRun: %v", s.WorkerNS)
	}
	if s.Imbalance() != 1 {
		t.Fatalf("sequential imbalance = %v, want 1", s.Imbalance())
	}
}

func TestSnapshotDerivedEdgeCases(t *testing.T) {
	var s Snapshot
	if s.NsPerRun() != 0 || s.AchievedGBs() != 0 {
		t.Fatal("zero snapshot must derive zeros")
	}
	if s.Imbalance() != 1 {
		t.Fatalf("empty imbalance = %v, want 1", s.Imbalance())
	}
	s.WorkerNS = []int64{0, 0}
	if s.Imbalance() != 1 {
		t.Fatal("all-idle buckets must report balanced")
	}
	// bytes/ns is numerically GB/s: 2000 bytes in 1000 ns = 2 GB/s.
	s = Snapshot{BytesEst: 2000, WallNS: 1000}
	if g := s.AchievedGBs(); g != 2 {
		t.Fatalf("achieved GB/s = %v, want 2", g)
	}
	m := roofline.Machine{MemGBs: 200}
	if f := s.RooflineFraction(m); f != 0.01 {
		t.Fatalf("roofline fraction = %v, want 0.01", f)
	}
	if s.RooflineFraction(roofline.Machine{}) != 0 {
		t.Fatal("zero machine must derive 0")
	}
}

func TestCollectorSchedAndSteals(t *testing.T) {
	var c Collector
	c.SizeWorkers(3)
	c.SetSched("steal")
	if c.Sched() != "steal" {
		t.Fatalf("Sched() = %q", c.Sched())
	}

	// No steals yet: the snapshot omits the buckets entirely so
	// static-scheduled BENCH records stay free of dead fields.
	s := c.Snapshot()
	if s.Sched != "steal" {
		t.Fatalf("snapshot sched = %q", s.Sched)
	}
	if s.WorkerSteals != nil || s.Steals() != 0 {
		t.Fatalf("steal-free snapshot carries buckets: %v", s.WorkerSteals)
	}

	c.AddWorkerSteal(1)
	c.AddWorkerSteal(1)
	c.AddWorkerSteal(2)
	s = c.Snapshot()
	if len(s.WorkerSteals) != 3 || s.WorkerSteals[1] != 2 || s.WorkerSteals[2] != 1 {
		t.Fatalf("steal buckets wrong: %v", s.WorkerSteals)
	}
	if s.Steals() != 3 {
		t.Fatalf("Steals() = %d, want 3", s.Steals())
	}

	// Reset zeroes the buckets but keeps the scheduler identity (it is
	// resize-path state, like the kernel name).
	c.Reset()
	s = c.Snapshot()
	if s.WorkerSteals != nil || s.Sched != "steal" {
		t.Fatalf("reset: %+v", s)
	}
}

func TestWindowImbalance(t *testing.T) {
	var c Collector
	c.SizeWorkers(2)
	prev := make([]int64, 2)

	c.AddWorkerTime(0, 3*time.Millisecond)
	c.AddWorkerTime(1, 1*time.Millisecond)
	// Window 1: max 3ms over mean 2ms.
	if im := c.WindowImbalance(prev); im != 1.5 {
		t.Fatalf("window 1 imbalance = %v, want 1.5", im)
	}

	// Window 2 sees only the delta since window 1 — the cumulative
	// buckets grew, but the window is balanced.
	c.AddWorkerTime(0, 2*time.Millisecond)
	c.AddWorkerTime(1, 2*time.Millisecond)
	if im := c.WindowImbalance(prev); im != 1 {
		t.Fatalf("window 2 imbalance = %v, want 1", im)
	}

	// Empty window and mis-sized baselines report balanced.
	if im := c.WindowImbalance(prev); im != 1 {
		t.Fatalf("empty window imbalance = %v, want 1", im)
	}
	if im := c.WindowImbalance(make([]int64, 5)); im != 1 {
		t.Fatalf("mis-sized baseline imbalance = %v, want 1", im)
	}
	var seq Collector
	seq.SizeWorkers(1)
	if im := seq.WindowImbalance(make([]int64, 1)); im != 1 {
		t.Fatalf("sequential window imbalance = %v, want 1", im)
	}
}

func TestPhaseTimes(t *testing.T) {
	p := PhaseTimes{MTTKRPNS: 600, SolveNS: 300, NormNS: 100}
	if p.TotalNS() != 1000 {
		t.Fatalf("total = %d", p.TotalNS())
	}
	if p.MTTKRPShare() != 0.6 {
		t.Fatalf("share = %v", p.MTTKRPShare())
	}
	if (PhaseTimes{}).MTTKRPShare() != 0 {
		t.Fatal("empty share must be 0")
	}
	// JSON keys are part of the BENCH-adjacent report contract.
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"mttkrp_ns":600,"solve_ns":300,"norm_ns":100}`
	if string(data) != want {
		t.Fatalf("phase JSON = %s, want %s", data, want)
	}
}

func TestCommStats(t *testing.T) {
	var c CommStats
	if c.Faulted() {
		t.Fatal("zero CommStats reports faulted")
	}
	c = CommStats{Retries: 3, Timeouts: 1, BackoffSec: 0.75, Crashes: 1,
		SweepRetries: 3, DegradedSweeps: 4}
	if !c.Faulted() {
		t.Fatal("nonzero CommStats not faulted")
	}
	// JSON keys are part of the chaos-report contract.
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"retries":3,"timeouts":1,"backoff_sec":0.75,"crashes":1,"sweep_retries":3,"degraded_sweeps":4}`
	if string(data) != want {
		t.Fatalf("CommStats JSON = %s, want %s", data, want)
	}
}

func TestCollectorIOWaitAndPrefetch(t *testing.T) {
	var c Collector
	c.SizeWorkers(1)
	c.SizePrefetchers(2)
	start := time.Now().Add(-10 * time.Millisecond)
	c.AddIOWait(2 * time.Millisecond)
	c.AddPrefetch(0, 5*time.Millisecond)
	c.AddPrefetch(1, 3*time.Millisecond)
	c.EndRun(start)

	s := c.Snapshot()
	if s.IOWaitNS != (2 * time.Millisecond).Nanoseconds() {
		t.Fatalf("IOWaitNS = %d", s.IOWaitNS)
	}
	if len(s.PrefetchNS) != 2 || s.PrefetchTotalNS() != (8*time.Millisecond).Nanoseconds() {
		t.Fatalf("prefetch buckets wrong: %v", s.PrefetchNS)
	}
	if s.OverlapNS() != (6 * time.Millisecond).Nanoseconds() {
		t.Fatalf("OverlapNS = %d", s.OverlapNS())
	}
	if f := s.OverlapFraction(); f < 0.74 || f > 0.76 {
		t.Fatalf("OverlapFraction = %v, want 0.75", f)
	}
	if f := s.IOWaitFraction(); f <= 0 || f > 1 {
		t.Fatalf("IOWaitFraction = %v", f)
	}

	// Reset clears the new counters but keeps the bucket sizing.
	c.Reset()
	s = c.Snapshot()
	if s.IOWaitNS != 0 || s.PrefetchTotalNS() != 0 || len(s.PrefetchNS) != 2 {
		t.Fatalf("reset did not clear ooc counters: %+v", s)
	}

	// In-memory executors never size prefetchers: their snapshots omit
	// the ooc fields from the BENCH record entirely.
	var plain Collector
	plain.SizeWorkers(1)
	data, err := json.Marshal(plain.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "io_wait_ns") || strings.Contains(string(data), "prefetch_ns") {
		t.Fatalf("in-memory snapshot leaks ooc fields: %s", data)
	}
	// Derived helpers are safe on empty snapshots.
	var empty Snapshot
	if empty.IOWaitFraction() != 0 || empty.OverlapFraction() != 0 || empty.OverlapNS() != 0 {
		t.Fatal("empty snapshot fractions must be 0")
	}
}
