// Package metrics is the always-compiled, allocation-free kernel
// instrumentation layer. The paper's argument rests on *measured*
// memory traffic and load balance (the roofline placement of Sec. IV-A
// and the pressure-point analysis of Sec. IV-B), yet an uninstrumented
// executor runs blind: a perf claim in a bench log cannot be decomposed
// into "how many nonzeros moved", "how many strips re-walked the
// tensor" or "which worker sat idle". This package gives every executor
// a Collector that answers those questions for free.
//
// The design obeys the //spblock:hotpath zero-alloc contract by
// splitting each counter into a cold half and a hot half:
//
//   - the cold half (SizeWorkers, SetPerRun) runs at construction and on
//     the amortised rank-resize path. It precomputes the per-Run counter
//     deltas — nnz processed, fibers touched, blocks visited, strips
//     packed, estimated bytes moved per Equation 1 — from the
//     preprocessed structure, because those deltas are a pure function
//     of (structure, rank, strip width) and never change between
//     resizes;
//   - the hot half (EndRun, AddWorkerTime) is a handful of integer adds
//     against pre-sized fields. No allocation, no locking, no map, no
//     interface: spblock-lint's hotpathalloc analyzer traverses these
//     bodies from every annotated kernel entry point and they pass
//     unmodified.
//
// Per-worker wall time lives in a bucket slice pre-sized to the worker
// count; each worker owns exactly one element, so concurrent writes are
// race-free by index disjointness (the same argument the kernels use
// for output rows). Snapshot copies everything out and derives the two
// numbers the paper's figures are built from: load imbalance
// (max/mean worker busy time, the Fig. 5 quantity) and achieved GB/s
// against the Equation 1 traffic estimate (the Fig. 4 roofline
// placement).
package metrics

import (
	"time"

	"spblock/internal/roofline"
)

// PerRun holds the structure-derived counter deltas one executor Run
// contributes. It is precomputed on the cold (workspace-resize) path so
// the hot path only performs constant-count integer additions.
type PerRun struct {
	// NNZ is the number of nonzeros the kernels process per Run. Rank
	// strips re-walk the whole structure once per strip, so with S
	// strips this is S times the stored nonzero count — exactly the
	// index-retraffic cost Sec. V-B trades against factor locality.
	NNZ int64
	// Fibers is the number of fiber (accumulator) epilogues per Run,
	// again counted once per strip walk. Blocked layouts store more
	// fibers than the unblocked CSF (fibers split at block boundaries);
	// that overhead is visible here.
	Fibers int64
	// Blocks is the number of non-empty spatial blocks visited per Run
	// (0 for unblocked layouts).
	Blocks int64
	// Strips is the number of rank-strip kernel invocations per Run
	// (0 when rank blocking is off or the strip covers the whole rank).
	Strips int64
	// BytesEst is the Equation 1 estimate of bytes moved per Run at
	// alpha = 0 (see EqBytes).
	BytesEst int64
}

// EqBytes evaluates the Equation 1 traffic model at alpha = 0 (every
// factor access misses — the compulsory-traffic upper bound) for a
// structure walked `strips` times at total rank `rank`:
//
//	Q = strips·(2·nnz + 2·F) + R·nnz + R·F   words of 8 bytes.
//
// The index terms (val + j index, k index + k pointer) are re-read on
// every strip walk; the factor terms stream each of the R columns
// exactly once across all strips (each strip touches only its own
// columns), so they do not scale with the strip count. strips < 1 is
// treated as 1 (a plain unstripped walk).
func EqBytes(nnz, fibers int64, rank, strips int) int64 {
	if strips < 1 {
		strips = 1
	}
	return 8 * (2*int64(strips)*(nnz+fibers) + int64(rank)*(nnz+fibers))
}

// Collector accumulates per-Run counters and per-worker wall-time
// buckets for one executor. The zero value is usable for sequential
// executors after SizeWorkers; executors embed one Collector by value
// and expose it through a Metrics() accessor.
//
// Concurrency: AddWorkerTime(w, ·) is called by worker w only, and
// distinct workers own distinct bucket elements; every other method is
// called from the executor's Run goroutine. A Collector must not be
// snapshotted while its executor is mid-Run (the same single-Run rule
// the pooled workspaces already impose).
type Collector struct {
	perRun PerRun
	kernel string
	sched  string

	runs       int64
	totals     PerRun
	runNS      int64
	workerNS   []int64
	steals     []int64
	ioWaitNS   int64
	prefetchNS []int64
}

// SizeWorkers pre-sizes the per-worker time buckets (and the parallel
// steal buckets). Called once at executor construction, after the
// worker closures are built; n < 1 is clamped to one bucket (the
// sequential path).
func (c *Collector) SizeWorkers(n int) {
	if n < 1 {
		n = 1
	}
	c.workerNS = make([]int64, n)
	c.steals = make([]int64, n)
}

// Workers returns the number of per-worker buckets (1 for sequential
// executors) — the length a WindowImbalance baseline must have.
func (c *Collector) Workers() int { return len(c.workerNS) }

// SetPerRun installs the precomputed per-Run counter deltas. Called on
// the amortised resize path whenever the rank or strip width changes.
func (c *Collector) SetPerRun(p PerRun) { c.perRun = p }

// SetKernel records the register-block kernel variant the executor
// resolved for its current rank (e.g. "w16"; see internal/kernel).
// Called on the same amortised resize path as SetPerRun; empty means
// the executor's method dispatches no rank-strip kernel.
func (c *Collector) SetKernel(name string) { c.kernel = name }

// SetSched records the executor's resolved scheduler identity (the
// internal/sched name constants, e.g. "static", "steal",
// "adaptive:static"). The adaptive executor calls it again at
// promotion time with a preallocated constant, so the call is legal on
// the hot path; empty means the executor runs sequentially and
// schedules nothing.
//
//spblock:hotpath
func (c *Collector) SetSched(name string) { c.sched = name }

// Sched returns the recorded scheduler identity.
func (c *Collector) Sched() string { return c.sched }

// EndRun closes out one executor Run that started at `start`: it adds
// the precomputed counter deltas and the wall time. On the sequential
// path (one bucket) the run's wall time is also the worker's busy time.
//
// Hot-path safe: constant integer adds only.
//
//spblock:hotpath
func (c *Collector) EndRun(start time.Time) {
	c.runs++
	c.totals.NNZ += c.perRun.NNZ
	c.totals.Fibers += c.perRun.Fibers
	c.totals.Blocks += c.perRun.Blocks
	c.totals.Strips += c.perRun.Strips
	c.totals.BytesEst += c.perRun.BytesEst
	ns := time.Since(start).Nanoseconds()
	c.runNS += ns
	if len(c.workerNS) == 1 {
		c.workerNS[0] += ns
	}
}

// AddWorkerTime adds dt to worker w's busy-time bucket. Called by the
// worker closures around their kernel bodies; each worker writes only
// its own element.
//
// Hot-path safe: one integer add.
func (c *Collector) AddWorkerTime(w int, dt time.Duration) {
	c.workerNS[w] += dt.Nanoseconds()
}

// AddWorkerSteal counts one stolen chunk claimed by worker w. Same
// index-disjointness contract as AddWorkerTime.
//
// Hot-path safe: one integer add.
func (c *Collector) AddWorkerSteal(w int) {
	c.steals[w]++
}

// SizePrefetchers pre-sizes the per-decoder prefetch busy-time buckets
// for an out-of-core executor. Cold path, called once at construction;
// n < 1 clears the buckets (the in-memory executors never call this,
// so their Snapshots omit the prefetch fields entirely).
func (c *Collector) SizePrefetchers(n int) {
	if n < 1 {
		c.prefetchNS = nil
		return
	}
	c.prefetchNS = make([]int64, n)
}

// AddIOWait adds dt to the consumer-side IO stall time: wall time the
// kernel loop spent blocked waiting for the next decoded block. Called
// only from the executor's Run goroutine.
//
// Hot-path safe: one integer add.
//
//spblock:hotpath
func (c *Collector) AddIOWait(dt time.Duration) {
	c.ioWaitNS += dt.Nanoseconds()
}

// AddPrefetch adds dt to decoder w's busy-time bucket (read + decode,
// excluding backpressure waits). Each decoder writes only its own
// element — the same index-disjointness contract as AddWorkerTime.
//
// Hot-path safe: one integer add.
//
//spblock:hotpath
func (c *Collector) AddPrefetch(w int, dt time.Duration) {
	c.prefetchNS[w] += dt.Nanoseconds()
}

// WindowImbalance returns the max/mean load-imbalance factor of the
// worker busy time accumulated since the previous call — the adaptive
// controller's per-run observation. prev is the caller-owned window
// baseline, pre-sized to the worker count on the cold path; the call
// updates it in place, so it is allocation-free and legal after EndRun
// on the hot path (the workers are quiescent there — same single-Run
// rule as Snapshot). Returns 1 (balanced) for sequential executors, a
// mis-sized baseline, or an empty window.
//
//spblock:hotpath
func (c *Collector) WindowImbalance(prev []int64) float64 {
	n := len(c.workerNS)
	if n <= 1 || len(prev) != n {
		return 1
	}
	var sum, maxNS int64
	for i, ns := range c.workerNS {
		d := ns - prev[i]
		prev[i] = ns
		sum += d
		if d > maxNS {
			maxNS = d
		}
	}
	if sum <= 0 {
		return 1
	}
	return float64(maxNS) * float64(n) / float64(sum)
}

// Reset zeroes the accumulated totals and time buckets, keeping the
// bucket sizing and the per-Run deltas. Benchmarks call it after
// warm-up so a report covers exactly the timed window.
func (c *Collector) Reset() {
	c.runs = 0
	c.totals = PerRun{}
	c.runNS = 0
	for i := range c.workerNS {
		c.workerNS[i] = 0
	}
	for i := range c.steals {
		c.steals[i] = 0
	}
	c.ioWaitNS = 0
	for i := range c.prefetchNS {
		c.prefetchNS[i] = 0
	}
}

// Snapshot is a point-in-time copy of a Collector's accumulated state,
// plus the derived report quantities. It is a plain value: safe to
// retain, compare and serialise (all fields are JSON-tagged for the
// BENCH record schema).
type Snapshot struct {
	// Runs is the number of completed executor Runs.
	Runs int64 `json:"runs"`
	// NNZ is the total nonzeros processed across runs (strip walks
	// counted once per strip).
	NNZ int64 `json:"nnz"`
	// Fibers is the total fiber epilogues across runs.
	Fibers int64 `json:"fibers"`
	// Blocks is the total non-empty blocks visited across runs.
	Blocks int64 `json:"blocks"`
	// Strips is the total rank-strip invocations across runs.
	Strips int64 `json:"strips"`
	// BytesEst is the total Equation 1 (alpha = 0) byte estimate.
	BytesEst int64 `json:"bytes_est"`
	// WallNS is the total wall time spent inside Run, in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// WorkerNS holds each worker's accumulated busy time in
	// nanoseconds; a single entry means the executor ran sequentially.
	WorkerNS []int64 `json:"worker_ns,omitempty"`
	// Kernel names the register-block kernel variant the executor
	// dispatched through ("w8"/"w16"/"w24"/"w32"/"scalar"; see
	// internal/kernel). Empty for methods without a rank-strip kernel.
	Kernel string `json:"kernel,omitempty"`
	// Sched names the resolved scheduler (internal/sched: "static",
	// "steal", "adaptive:static", "adaptive:steal"). Empty for
	// sequential executors. BENCH schema v3.
	Sched string `json:"sched,omitempty"`
	// WorkerSteals holds each worker's stolen-chunk count; omitted when
	// no chunk was ever stolen. BENCH schema v3.
	WorkerSteals []int64 `json:"worker_steals,omitempty"`
	// IOWaitNS is the wall time the out-of-core consumer loop spent
	// blocked waiting for the next decoded block, in nanoseconds.
	// Omitted (zero) for in-memory executors.
	IOWaitNS int64 `json:"io_wait_ns,omitempty"`
	// PrefetchNS holds each out-of-core decoder's busy time (read +
	// decode) in nanoseconds. Omitted for in-memory executors.
	PrefetchNS []int64 `json:"prefetch_ns,omitempty"`
}

// Snapshot copies the collector's state out. Cold path: it allocates
// the bucket copy.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Runs:     c.runs,
		NNZ:      c.totals.NNZ,
		Fibers:   c.totals.Fibers,
		Blocks:   c.totals.Blocks,
		Strips:   c.totals.Strips,
		BytesEst: c.totals.BytesEst,
		WallNS:   c.runNS,
		WorkerNS: append([]int64(nil), c.workerNS...),
		Kernel:   c.kernel,
		Sched:    c.sched,
		IOWaitNS: c.ioWaitNS,
	}
	for _, v := range c.steals {
		if v != 0 {
			s.WorkerSteals = append([]int64(nil), c.steals...)
			break
		}
	}
	if c.prefetchNS != nil {
		s.PrefetchNS = append([]int64(nil), c.prefetchNS...)
	}
	return s
}

// Steals returns the total stolen-chunk count across workers.
func (s Snapshot) Steals() int64 {
	var t int64
	for _, v := range s.WorkerSteals {
		t += v
	}
	return t
}

// PrefetchTotalNS returns the summed decoder busy time across the
// prefetch buckets (0 for in-memory executors).
func (s Snapshot) PrefetchTotalNS() int64 {
	var t int64
	for _, v := range s.PrefetchNS {
		t += v
	}
	return t
}

// IOWaitFraction returns the fraction of Run wall time the consumer
// loop spent stalled on IO — 0 means decode was fully hidden behind
// kernel execution, 1 means the run was IO-bound end to end. Returns 0
// before any timed run.
func (s Snapshot) IOWaitFraction() float64 {
	if s.WallNS <= 0 {
		return 0
	}
	f := float64(s.IOWaitNS) / float64(s.WallNS)
	if f > 1 {
		f = 1
	}
	return f
}

// OverlapNS returns the decoder busy time hidden behind kernel
// execution: total prefetch work minus the part the consumer actually
// waited for, clamped at 0.
func (s Snapshot) OverlapNS() int64 {
	o := s.PrefetchTotalNS() - s.IOWaitNS
	if o < 0 {
		o = 0
	}
	return o
}

// OverlapFraction returns the fraction of prefetch (IO + decode) work
// that overlapped with kernel execution — 1 means all IO was hidden,
// 0 means the pipeline serialised. Returns 0 when no prefetch work was
// recorded.
func (s Snapshot) OverlapFraction() float64 {
	t := s.PrefetchTotalNS()
	if t <= 0 {
		return 0
	}
	return float64(s.OverlapNS()) / float64(t)
}

// NsPerRun returns the mean wall time per Run in nanoseconds, or 0
// before any run completed.
func (s Snapshot) NsPerRun() int64 {
	if s.Runs == 0 {
		return 0
	}
	return s.WallNS / s.Runs
}

// Imbalance returns the load-imbalance factor max/mean over the worker
// busy-time buckets — 1.0 means perfectly balanced, W means one worker
// did all the work of W. Returns 1 for sequential executors or before
// any timed work.
func (s Snapshot) Imbalance() float64 {
	if len(s.WorkerNS) <= 1 {
		return 1
	}
	var sum, maxNS int64
	for _, ns := range s.WorkerNS {
		sum += ns
		if ns > maxNS {
			maxNS = ns
		}
	}
	if sum <= 0 {
		return 1
	}
	mean := float64(sum) / float64(len(s.WorkerNS))
	return float64(maxNS) / mean
}

// AchievedGBs returns the achieved memory throughput in GB/s implied
// by the Equation 1 traffic estimate over the measured wall time, or 0
// before any timed run.
func (s Snapshot) AchievedGBs() float64 {
	if s.WallNS <= 0 {
		return 0
	}
	return float64(s.BytesEst) / float64(s.WallNS)
}

// RooflineFraction places the achieved throughput against machine m's
// memory bandwidth: 1.0 means the kernel saturates the roofline's
// memory roof under the alpha = 0 traffic model.
func (s Snapshot) RooflineFraction(m roofline.Machine) float64 {
	if m.MemGBs <= 0 {
		return 0
	}
	return s.AchievedGBs() / m.MemGBs
}

// PhaseTimes buckets a decomposition's wall time by phase: the MTTKRP
// products (the kernel this library optimises), the normal-equation
// solves, and the fit/norm evaluation. internal/als fills one per
// CP-ALS run so "MTTKRP dominates the decomposition" (Sec. I) is a
// measured statement, not an assumption.
type PhaseTimes struct {
	// MTTKRPNS is the total wall time of MTTKRP dispatches, in
	// nanoseconds.
	MTTKRPNS int64 `json:"mttkrp_ns"`
	// SolveNS is the total wall time of the Gram/Hadamard assembly, SPD
	// solve, column normalisation and Gram refresh, in nanoseconds.
	SolveNS int64 `json:"solve_ns"`
	// NormNS is the total wall time of the per-sweep fit evaluation, in
	// nanoseconds.
	NormNS int64 `json:"norm_ns"`
}

// TotalNS returns the summed phase time.
func (p PhaseTimes) TotalNS() int64 { return p.MTTKRPNS + p.SolveNS + p.NormNS }

// CommStats aggregates the distributed runtime's fault-tolerance
// telemetry across a decomposition: the reliability protocol's message
// resends and expired waits, the modeled backoff those retries added to
// the α-β communication time, and the driver-level degradation events
// (sweeps restarted, ranks lost, sweeps completed on a shrunken rank
// set). Every field is zero when fault injection is off, so a healthy
// run reports a zero value — the same "instrumentation is free"
// contract the kernel counters follow.
type CommStats struct {
	// Retries counts point-to-point resends inside the collectives.
	Retries int64 `json:"retries"`
	// Timeouts counts ack/receive waits that expired.
	Timeouts int64 `json:"timeouts"`
	// BackoffSec is the modeled retry backoff added to communication
	// time (it is already included in the modeled seconds).
	BackoffSec float64 `json:"backoff_sec"`
	// Crashes counts ranks lost to injected crashes.
	Crashes int `json:"crashes"`
	// SweepRetries counts ALS sweeps restarted after a kernel failure.
	SweepRetries int `json:"sweep_retries"`
	// DegradedSweeps counts sweeps completed after the runtime
	// re-partitioned over the surviving ranks.
	DegradedSweeps int `json:"degraded_sweeps"`
}

// Faulted reports whether any fault-tolerance machinery engaged.
func (c CommStats) Faulted() bool {
	return c != CommStats{}
}

// MTTKRPShare returns MTTKRP's fraction of the accounted time, or 0
// before any phase ran.
func (p PhaseTimes) MTTKRPShare() float64 {
	t := p.TotalNS()
	if t <= 0 {
		return 0
	}
	return float64(p.MTTKRPNS) / float64(t)
}
