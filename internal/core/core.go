// Package core implements the paper's contribution: the sparse MTTKRP
// kernel family built around the SPLATT storage format, the two
// blocking optimisations of Sec. V (multi-dimensional blocking and
// rank blocking with register blocking), and the Sec. V-C block-size
// heuristic.
//
// All kernels compute the mode-1 MTTKRP
//
//	A = X₍₁₎ · (B ⊙ C)
//
// for a third-order sparse tensor X ∈ R^{I×J×K} and factor matrices
// B ∈ R^{J×R}, C ∈ R^{K×R}, accumulating into an I×R output. Mode-2
// and mode-3 products are served by permuting the tensor's modes first
// (the three products are structurally identical — Sec. III-B).
package core

import (
	"fmt"
	"runtime"
	"time"

	"spblock/internal/analysis/check"
	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/metrics"
	"spblock/internal/sched"
	"spblock/internal/tensor"
)

// Method selects an MTTKRP kernel.
type Method int

const (
	// MethodCOO is the coordinate-format reference kernel (Sec. III-C1).
	MethodCOO Method = iota
	// MethodSPLATT is Algorithm 1, the baseline the paper optimises.
	MethodSPLATT
	// MethodMB applies multi-dimensional blocking (Sec. V-A).
	MethodMB
	// MethodRankB applies rank blocking with register blocking
	// (Sec. V-B, Algorithm 2).
	MethodRankB
	// MethodMBRankB combines both blockings (Figure 3b).
	MethodMBRankB
)

func (m Method) String() string {
	switch m {
	case MethodCOO:
		return "COO"
	case MethodSPLATT:
		return "SPLATT"
	case MethodMB:
		return "MB"
	case MethodRankB:
		return "RankB"
	case MethodMBRankB:
		return "MB+RankB"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// RegisterBlockWidth is NRegB of Algorithm 2: the default number of
// columns processed with fully unrolled scalar accumulators. 16
// float64 lanes are two 64-byte cache lines, the paper's choice ("a
// multiple of the cache line size"). The actual width dispatched per
// executor comes from the internal/kernel registry (8/16/24/32-wide
// variants, resolved from the effective strip width).
const RegisterBlockWidth = kernel.DefaultWidth

// Plan describes how to execute MTTKRP on one tensor.
type Plan struct {
	Method Method
	// Grid is the MB block grid (blocks along mode-1, mode-2, mode-3).
	// {1,1,1} means unblocked. Only used by MethodMB and MethodMBRankB.
	Grid [3]int
	// RankBlockCols is BS_RankB of Algorithm 2, the number of columns
	// per rank strip. 0 means "whole rank" (no rank blocking). Only
	// used by MethodRankB and MethodMBRankB.
	RankBlockCols int
	// NoStripPacking disables the Sec. V-B "stacked strips" factor
	// rearrangement and runs rank strips directly on the stride-R
	// matrices. This exists as an ablation knob: with power-of-two
	// ranks the unpacked strips conflict-miss pathologically, which is
	// precisely why the paper prescribes the rearrangement.
	NoStripPacking bool
	// Workers is the parallelism degree; 0 means GOMAXPROCS. Negative
	// values are rejected by NewExecutor.
	Workers int
	// Sched selects the work-distribution policy (internal/sched): the
	// zero value is the static layout-driven split the paper assumes,
	// PolicySteal carves chunked work-stealing deques, PolicyAdaptive
	// starts static and promotes to stealing when the measured worker
	// imbalance holds above the controller threshold. MethodCOO always
	// runs static: its privatised outputs are reduced in worker order,
	// so a dynamic chunk→worker assignment would perturb the
	// floating-point reduction order.
	Sched sched.Policy
}

func (p Plan) String() string {
	s := p.Method.String()
	if p.Method == MethodMB || p.Method == MethodMBRankB {
		s += fmt.Sprintf(" grid=%dx%dx%d", p.Grid[0], p.Grid[1], p.Grid[2])
	}
	if p.Method == MethodRankB || p.Method == MethodMBRankB {
		s += fmt.Sprintf(" bs=%d", p.RankBlockCols)
	}
	// Static is the historical default and stays unspelled so existing
	// BENCH baselines (keyed by plan string) keep matching.
	if p.Sched != sched.PolicyStatic {
		s += " sched=" + p.Sched.String()
	}
	return s
}

func (p Plan) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// validateOperands checks the factor shapes against the tensor dims.
//
//spblock:coldpath
func validateOperands(dims tensor.Dims, b, c, out *la.Matrix) error {
	if b.Cols != c.Cols || b.Cols != out.Cols {
		return fmt.Errorf("core: rank mismatch: B has %d cols, C %d, out %d",
			b.Cols, c.Cols, out.Cols)
	}
	if b.Cols == 0 {
		return fmt.Errorf("core: rank must be positive")
	}
	if out.Rows != dims[0] {
		return fmt.Errorf("core: out has %d rows, tensor mode-1 length is %d", out.Rows, dims[0])
	}
	if b.Rows != dims[1] {
		return fmt.Errorf("core: B has %d rows, tensor mode-2 length is %d", b.Rows, dims[1])
	}
	if c.Rows != dims[2] {
		return fmt.Errorf("core: C has %d rows, tensor mode-3 length is %d", c.Rows, dims[2])
	}
	return nil
}

// Executor owns the preprocessed tensor structures for one plan and
// runs MTTKRP repeatedly against them — matching how CP-ALS calls
// MTTKRP 10–1000s of times per decomposition, amortising the
// (cheap, Sec. V-A) data reorganisation.
//
// An Executor also owns a pooled workspace (see workspace.go), so
// repeated Run calls perform no steady-state heap allocations. The
// workspace makes Run unsafe to call concurrently on one Executor;
// build one Executor per goroutine instead.
type Executor struct {
	plan    Plan
	dims    tensor.Dims
	csf     *tensor.CSF    // for SPLATT / RankB
	blocked *BlockedTensor // for MB / MB+RankB
	coo     *tensor.COO    // for COO

	ws  workspace
	met metrics.Collector

	// ctrl is the adaptive policy's promotion loop, nil for static and
	// steal plans (and for executors that resolved to sequential runs).
	// prevNS is its per-worker busy-time window baseline, pre-sized on
	// the cold path so the per-Run observation is allocation-free.
	ctrl   *sched.Controller
	prevNS []int64
}

// NewExecutor preprocesses t according to plan. The input tensor is
// not retained except by the COO method.
func NewExecutor(t *tensor.COO, plan Plan) (*Executor, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if plan.Workers < 0 {
		return nil, fmt.Errorf("core: negative Workers %d", plan.Workers)
	}
	if !plan.Sched.Valid() {
		return nil, fmt.Errorf("core: unknown sched policy %d", plan.Sched)
	}
	e := &Executor{plan: plan, dims: t.Dims}
	switch plan.Method {
	case MethodCOO:
		e.coo = t
	case MethodSPLATT, MethodRankB:
		csf, err := tensor.BuildCSF(t)
		if err != nil {
			return nil, err
		}
		e.csf = csf
	case MethodMB, MethodMBRankB:
		bt, err := BuildBlocked(t, plan.Grid)
		if err != nil {
			return nil, err
		}
		e.blocked = bt
	default:
		return nil, fmt.Errorf("core: unknown method %v", plan.Method)
	}
	if plan.Method == MethodRankB || plan.Method == MethodMBRankB {
		if plan.RankBlockCols < 0 {
			return nil, fmt.Errorf("core: negative RankBlockCols %d", plan.RankBlockCols)
		}
	}
	if check.Enabled {
		switch {
		case e.csf != nil:
			check.Must("core.NewExecutor", validateCSF(e.csf))
		case e.blocked != nil:
			check.Must("core.NewExecutor", validateBlocked(e.blocked))
		}
	}
	e.initRunners()
	e.met.SizeWorkers(len(e.ws.runners))
	e.initSched()
	return e, nil
}

// initSched applies the plan's scheduling policy to the queue the
// runners were built around and, for the adaptive policy, constructs
// the controller (its window baseline is sized by the ensure path,
// which re-sizes it whenever the worker buckets change). Re-entrant:
// SetWorkers calls it again after rebuilding the runners, and an
// adaptive executor keeps its controller — including any promotion
// already ratcheted — across the resize.
//
//spblock:coldpath
func (e *Executor) initSched() {
	if len(e.ws.runners) == 0 {
		// Sequential resolution schedules nothing.
		e.ctrl = nil
		e.prevNS = nil
		e.met.SetSched("")
		return
	}
	switch {
	case e.plan.Sched == sched.PolicySteal && e.ws.q.CanSteal():
		e.ws.q.SetStealing(true)
		e.met.SetSched(sched.StealName)
	case e.plan.Sched == sched.PolicyAdaptive && e.ws.q.CanSteal():
		if e.ctrl == nil {
			e.ctrl = sched.NewController()
		}
		if e.ctrl.Promoted() {
			e.ws.q.SetStealing(true)
			e.met.SetSched(sched.AdaptiveStealName)
		} else {
			e.met.SetSched(sched.AdaptiveStaticName)
		}
	default:
		// Static plans, and non-static plans on a method that never
		// builds a stealing layout (COO's ordered reduction).
		e.ctrl = nil
		e.prevNS = nil
		e.met.SetSched(sched.StaticName)
	}
}

// SetWorkers re-sizes the executor's parallelism mid-life to n workers
// (0 = GOMAXPROCS): the worker closures, sched.Queue layouts and
// per-worker metrics buckets are rebuilt, and the rank-dependent
// buffers (accumulators, privatised outputs, the adaptive window
// baseline) re-size on the next Run's ensure pass. The preprocessed
// tensor structures are untouched — this is what makes the call cheap
// enough for a serving cache to adapt one long-lived pooled stack to
// each job's requested parallelism instead of rebuilding the stack.
//
// SetWorkers must not be called concurrently with Run (the same
// single-Run ownership rule Run itself carries). An adaptive executor
// keeps its controller: promotion state survives, and the resized
// baseline means the ratchet keeps observing — it does not silently
// die the way a stale-length baseline would make it.
//
//spblock:coldpath
func (e *Executor) SetWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("core: negative Workers %d", n)
	}
	e.plan.Workers = n
	e.ws.runners = nil
	e.ws.q = sched.Queue{}
	e.initRunners()
	e.met.SizeWorkers(len(e.ws.runners))
	e.initSched()
	// Zeroing the sized rank forces the next Run through ensure, which
	// rebuilds the per-worker rank buffers and the window baseline at
	// the new width.
	e.ws.rank = 0
	return nil
}

// MemoryBytes reports the in-memory footprint of the executor's
// preprocessed tensor structure (the CSF, the blocked layout, or the
// aliased COO coordinates) — the storage a long-lived executor cache
// charges against its byte budget.
func (e *Executor) MemoryBytes() int64 {
	switch {
	case e.csf != nil:
		return e.csf.MemoryBytes()
	case e.blocked != nil:
		return e.blocked.MemoryBytes()
	case e.coo != nil:
		// 3 int32 index slices + 1 float64 value slice, all nnz long.
		return int64(e.coo.NNZ()) * (3*4 + 8)
	}
	return 0
}

// Plan returns the executor's plan.
func (e *Executor) Plan() Plan { return e.plan }

// Kernel reports the register-block kernel variant the executor
// dispatches through. It is resolved from the effective strip width on
// the first Run at a given rank, so before any Run it is the zero
// Variant; methods without rank blocking (COO, SPLATT, MB) never
// resolve one.
func (e *Executor) Kernel() kernel.Variant { return e.ws.kern.Variant }

// Sched reports the resolved scheduler identity (the internal/sched
// name constants): what the executor is actually running, not just
// what the plan asked for — an adaptive executor reports
// "adaptive:static" until its controller promotes it. Empty for
// sequential executors.
func (e *Executor) Sched() string { return e.met.Sched() }

// Metrics returns the executor's instrumentation collector: per-Run
// counters and per-worker time buckets, always collecting. Snapshot it
// between Runs, never mid-Run.
func (e *Executor) Metrics() *metrics.Collector { return &e.met }

// Dims returns the tensor shape.
func (e *Executor) Dims() tensor.Dims { return e.dims }

// Run computes out = MTTKRP(X, B, C). out is zeroed first.
//
// After the first call at a given rank, Run is allocation-free: every
// buffer it needs lives in the executor's pooled workspace. Run must
// not be called concurrently on the same Executor.
//
//spblock:hotpath
func (e *Executor) Run(b, c, out *la.Matrix) error {
	if err := validateOperands(e.dims, b, c, out); err != nil {
		return err
	}
	e.ensure(out.Cols)
	start := time.Now()
	out.Zero()
	switch e.plan.Method {
	case MethodCOO:
		e.runCOO(b, c, out)
	case MethodSPLATT:
		e.runSPLATT(b, c, out)
	case MethodRankB, MethodMBRankB:
		// Strips are driven from outside the kernel so each strip's
		// factor columns can be packed contiguously (Sec. V-B); the
		// kernel then register-blocks within the packed strip. For
		// MB+RankB the rank dimension is the outermost loop (Figure 3b)
		// and the spatial blocks run with register blocking inside it.
		e.runStripped(b, c, out)
	case MethodMB:
		e.runMB(b, c, out, 0)
	}
	e.met.EndRun(start)
	e.observe()
	return nil
}

// observe feeds the adaptive controller this run's worker-imbalance
// window and flips the queue to the stealing layout when the
// controller's ratchet fires. The workers are quiescent here (launch
// joined them), both layouts were prebuilt, and the scheduler names
// are constants, so promotion stays on the allocation-free hot path.
//
//spblock:hotpath
func (e *Executor) observe() {
	if e.ctrl == nil {
		return
	}
	if e.ctrl.Observe(e.met.WindowImbalance(e.prevNS)) {
		e.ws.q.SetStealing(true)
		e.met.SetSched(sched.AdaptiveStealName)
	}
}

// runCOO executes the coordinate kernel, privatising the output per
// worker (COO nonzero ranges do not own disjoint output rows).
//
//spblock:hotpath
func (e *Executor) runCOO(b, c, out *la.Matrix) {
	ws := &e.ws
	if len(ws.runners) == 0 {
		cooKernel(e.coo, b, c, out)
		return
	}
	ws.publish(b, c, out, 0)
	ws.launch()
	// Deterministic sequential reduction in worker order.
	for _, priv := range ws.privates {
		addInto(out, priv)
	}
}

// runSPLATT executes Algorithm 1 with slice-range work sharing.
//
//spblock:hotpath
func (e *Executor) runSPLATT(b, c, out *la.Matrix) {
	ws := &e.ws
	if len(ws.runners) == 0 {
		splattRange(e.csf, b, c, out, ws.accums[0][:out.Cols], 0, e.csf.NumSlices())
		return
	}
	ws.publish(b, c, out, 0)
	ws.launch()
}

// runMB executes the blocked kernel over mode-1 layers; bs > 0 applies
// rank blocking inside each block (MB+RankB).
//
//spblock:hotpath
func (e *Executor) runMB(b, c, out *la.Matrix, bs int) {
	ws := &e.ws
	if len(ws.runners) == 0 {
		accum := ws.accums[0][:out.Cols]
		for bi := 0; bi < e.blocked.Grid[0]; bi++ {
			mbLayer(e.blocked, b, c, out, &ws.kern, bs, bi, accum)
		}
		return
	}
	ws.publish(b, c, out, bs)
	ws.launch()
}

// runStripped drives the Sec. V-B strip loop: the rank is processed in
// strips of RankBlockCols columns. By default each factor's strip is
// packed into a pooled contiguous buffer before the kernel runs —
// "the tall and narrow strips of the factor matrix are stacked on top
// of each other ... to ensure a more sequential access to the memory".
//
// Packing matters beyond prefetch friendliness: with the natural
// stride-R layout, strip rows sit one full row apart, so for power-of-
// two ranks every strip row maps to the same handful of cache sets and
// conflict misses erase the blocking benefit entirely. With
// NoStripPacking (the ablation knob) strips are column views of the
// original stride-R matrices instead.
//
//spblock:hotpath
func (e *Executor) runStripped(b, c, out *la.Matrix) {
	ws := &e.ws
	r := out.Cols
	bs := e.rankBlock(r)
	if bs >= r {
		e.stripKernel(b, c, out)
		return
	}
	for rr := 0; rr < r; rr += bs {
		w := bs
		if rr+w > r {
			w = r - rr
		}
		if e.plan.NoStripPacking {
			setStrip(&ws.bView, b, rr, w)
			setStrip(&ws.cView, c, rr, w)
			setStrip(&ws.oView, out, rr, w)
			e.stripKernel(&ws.bView, &ws.cView, &ws.oView)
			continue
		}
		setStrip(&ws.bView, ws.bPack, 0, w)
		setStrip(&ws.cView, ws.cPack, 0, w)
		setStrip(&ws.oView, ws.oPack, 0, w)
		packStrip(&ws.bView, b, rr)
		packStrip(&ws.cView, c, rr)
		ws.oView.Zero()
		e.stripKernel(&ws.bView, &ws.cView, &ws.oView)
		unpackStrip(out, &ws.oView, rr)
	}
}

// stripKernel runs one strip's product; the strip operands must fully
// accumulate into po (whose Cols is the strip width).
//
//spblock:hotpath
func (e *Executor) stripKernel(pb, pc, po *la.Matrix) {
	ws := &e.ws
	if e.plan.Method == MethodMBRankB {
		e.runMB(pb, pc, po, po.Cols)
		return
	}
	if len(ws.runners) == 0 {
		rankBRange(e.csf, pb, pc, po, &ws.kern, po.Cols, 0, e.csf.NumSlices())
		return
	}
	ws.publish(pb, pc, po, po.Cols)
	ws.launch()
}

// rankBlock resolves the effective strip width for rank R.
//
//spblock:hotpath
func (e *Executor) rankBlock(r int) int {
	bs := e.plan.RankBlockCols
	if bs <= 0 || bs > r {
		return r
	}
	return bs
}

// PlanKernel predicts the rank-strip kernel variant an executor built
// for plan resolves at the given rank, without building one — the same
// width clamp and registry lookup the cold ensure half performs.
// Methods that never register-block report the zero Variant.
func PlanKernel(plan Plan, rank int) kernel.Variant {
	if plan.Method != MethodRankB && plan.Method != MethodMBRankB || rank <= 0 {
		return kernel.Variant{}
	}
	bs := plan.RankBlockCols
	if bs <= 0 || bs > rank {
		bs = rank
	}
	return kernel.Resolve(bs).Variant
}

// MTTKRP is the one-shot convenience entry point: it builds an
// executor for plan and runs it once. Repeated products over the same
// tensor should build an Executor instead.
func MTTKRP(t *tensor.COO, b, c, out *la.Matrix, plan Plan) error {
	e, err := NewExecutor(t, plan)
	if err != nil {
		return err
	}
	return e.Run(b, c, out)
}
