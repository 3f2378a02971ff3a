package nmode

import (
	"fmt"
	"time"

	"spblock/internal/analysis/check"
	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/metrics"
	"spblock/internal/sched"
)

// Executor owns the preprocessed structures and pooled workspace for
// repeated MTTKRP products over one mode of an order-N tensor — the
// N-mode counterpart of core.Executor. NewExecutor builds the
// mode-rooted CSF tree (or the blocked layout when opts.Grid asks for
// one) and validates it exactly once; Run then reuses pooled walkers,
// packed rank-strip buffers and prebuilt worker closures, so
// steady-state calls perform no heap allocations.
//
// Like core.Executor, one Executor must not Run concurrently with
// itself; distinct Executors (e.g. distinct modes of an engine.NEngine)
// are independent.
type Executor struct {
	dims  []int
	mode  int
	order int
	opts  Options

	// Exactly one of csf / blocked is non-nil.
	csf     *CSF
	blocked *BlockedTensor
	// layers groups the non-empty blocks by their root-mode block
	// coordinate: blocks in different layers write disjoint output rows,
	// so layers are the parallel work units of the blocked path.
	layers [][]*CSF

	ws  nworkspace
	met metrics.Collector

	// ctrl is the adaptive policy's promotion loop (nil unless
	// Options.Sched is PolicyAdaptive and the executor runs parallel);
	// prevNS is its per-worker busy-time window baseline, pre-sized on
	// the cold path.
	ctrl   *sched.Controller
	prevNS []int64
}

// NewExecutor preprocesses t for mode-`mode` MTTKRP products under
// opts. The CSF mode order is DefaultModeOrder (output mode at the
// root, remaining modes by increasing length).
func NewExecutor(t *Tensor, mode int, opts Options) (*Executor, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := t.Order()
	if n < 2 {
		return nil, fmt.Errorf("nmode: executor needs order >= 2, got %d", n)
	}
	if mode < 0 || mode >= n {
		return nil, fmt.Errorf("nmode: mode %d out of range [0,%d)", mode, n)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("nmode: negative worker count %d", opts.Workers)
	}
	if opts.RankBlockCols < 0 {
		return nil, fmt.Errorf("nmode: negative RankBlockCols %d", opts.RankBlockCols)
	}
	if !opts.Sched.Valid() {
		return nil, fmt.Errorf("nmode: unknown sched policy %d", opts.Sched)
	}
	e := &Executor{
		dims:  append([]int(nil), t.Dims...),
		mode:  mode,
		order: n,
		opts:  opts,
	}
	modeOrder := DefaultModeOrder(t.Dims, mode)
	grid, blocked, err := normalizeGrid(opts.Grid, t.Dims)
	if err != nil {
		return nil, err
	}
	if blocked {
		bt, err := BuildBlocked(t, grid, modeOrder)
		if err != nil {
			return nil, err
		}
		e.blocked = bt
		e.layers = rootLayers(bt, mode)
	} else {
		c, err := Build(t, modeOrder)
		if err != nil {
			return nil, err
		}
		e.csf = c
	}
	if check.Enabled {
		if e.blocked != nil {
			check.Must("nmode.NewExecutor", validateBlocked(e.blocked))
		} else {
			check.Must("nmode.NewExecutor", validateTree(e.csf))
		}
	}
	e.initRunners()
	e.met.SizeWorkers(len(e.ws.runners))
	e.initSched()
	return e, nil
}

// initSched applies the requested scheduling policy to the queue the
// runners claim from, mirroring core.Executor.initSched. Re-entrant:
// SetWorkers calls it again after rebuilding the runners, and an
// adaptive executor keeps its controller (and any promotion already
// ratcheted) across the resize; the window baseline is sized by the
// ensure path, which re-sizes it whenever the worker buckets change.
//
//spblock:coldpath
func (e *Executor) initSched() {
	if len(e.ws.runners) == 0 {
		e.ctrl = nil
		e.prevNS = nil
		e.met.SetSched("")
		return
	}
	switch {
	case e.opts.Sched == sched.PolicySteal && e.ws.q.CanSteal():
		e.ws.q.SetStealing(true)
		e.met.SetSched(sched.StealName)
	case e.opts.Sched == sched.PolicyAdaptive && e.ws.q.CanSteal():
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
		e.ctrl = nil
		e.prevNS = nil
		e.met.SetSched(sched.StaticName)
	}
}

// SetWorkers re-sizes the executor's parallelism mid-life to n workers
// (0 = GOMAXPROCS), rebuilding the worker closures, queue layouts and
// metrics buckets while keeping the preprocessed tree structures — the
// N-mode counterpart of core.Executor.SetWorkers, with the same
// contract: never call it concurrently with Run, and an adaptive
// executor's controller (and promotion state) survives the resize.
//
//spblock:coldpath
func (e *Executor) SetWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("nmode: negative worker count %d", n)
	}
	e.opts.Workers = n
	e.ws.runners = nil
	e.ws.q = sched.Queue{}
	e.initRunners()
	e.met.SizeWorkers(len(e.ws.runners))
	e.initSched()
	// Force the next Run through ensure so the per-worker walkers and
	// the adaptive window baseline re-size at the new width.
	e.ws.rank = 0
	return nil
}

// Mode returns the output mode this executor serves.
func (e *Executor) Mode() int { return e.mode }

// Kernel reports the register-block kernel variant the executor's leaf
// level dispatches through, resolved from the effective strip width on
// the first Run at a given rank (the zero Variant before any Run).
func (e *Executor) Kernel() kernel.Variant { return e.ws.kern.Variant }

// Metrics returns the executor's instrumentation collector: per-Run
// counters and per-worker time buckets, always collecting. Snapshot it
// between Runs, never mid-Run.
func (e *Executor) Metrics() *metrics.Collector { return &e.met }

// Sched reports the resolved scheduler identity (the internal/sched
// name constants); adaptive executors report their current layout.
// Empty for sequential executors.
func (e *Executor) Sched() string { return e.met.Sched() }

// Dims returns the tensor shape.
func (e *Executor) Dims() []int { return e.dims }

// Order returns the number of modes.
func (e *Executor) Order() int { return e.order }

// NNZ returns the nonzero count of the preprocessed tensor.
//
//spblock:hotpath
func (e *Executor) NNZ() int {
	if e.blocked != nil {
		return e.blocked.NNZ()
	}
	return e.csf.NNZ()
}

// Run computes out = MTTKRP over the executor's mode. factors is
// indexed by mode (the output mode's entry may be nil); out must be
// dims[mode] x R and is zeroed first. Steady-state calls at a fixed
// rank are allocation-free; a rank change re-sizes the pooled buffers
// once.
//
//spblock:hotpath
func (e *Executor) Run(factors []*la.Matrix, out *la.Matrix) error {
	if err := e.checkOperands(factors, out); err != nil {
		return err
	}
	r := out.Cols
	e.ensure(r)
	start := time.Now()
	out.Zero()
	if e.NNZ() == 0 {
		e.met.EndRun(start)
		return nil
	}
	bs := e.opts.RankBlockCols
	if bs <= 0 || bs >= r {
		e.runAll(factors, out)
		e.met.EndRun(start)
		e.observe()
		return nil
	}
	// Rank strips (Sec. V-B): pack each operand strip into the pooled
	// contiguous buffers, reusing the workspace's view headers.
	ws := &e.ws
	for rr := 0; rr < r; rr += bs {
		w := min(bs, r-rr)
		for m := 0; m < e.order; m++ {
			if m == e.mode {
				ws.pf[m] = nil
				continue
			}
			pv := &ws.views[m]
			*pv = la.Matrix{Rows: ws.packed[m].Rows, Cols: w, Stride: ws.packed[m].Stride, Data: ws.packed[m].Data}
			packStrip(pv, factors[m], rr)
			ws.pf[m] = pv
		}
		po := &ws.oView
		*po = la.Matrix{Rows: ws.oPack.Rows, Cols: w, Stride: ws.oPack.Stride, Data: ws.oPack.Data}
		po.Zero()
		e.runAll(ws.pf, po)
		unpackStrip(out, po, rr)
	}
	e.met.EndRun(start)
	e.observe()
	return nil
}

// observe feeds the adaptive controller this run's worker-imbalance
// window and flips the queue to the stealing layout when the ratchet
// fires — the same allocation-free transition core.Executor.observe
// performs.
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

//spblock:coldpath
func (e *Executor) checkOperands(factors []*la.Matrix, out *la.Matrix) error {
	if len(factors) != e.order {
		return fmt.Errorf("nmode: %d factors for order-%d tensor", len(factors), e.order)
	}
	r := out.Cols
	if r <= 0 {
		return fmt.Errorf("nmode: rank must be positive")
	}
	if out.Rows != e.dims[e.mode] {
		return fmt.Errorf("nmode: out has %d rows, want %d", out.Rows, e.dims[e.mode])
	}
	for m := 0; m < e.order; m++ {
		if m == e.mode {
			continue
		}
		f := factors[m]
		if f == nil {
			return fmt.Errorf("nmode: missing factor for mode %d", m)
		}
		if f.Cols != r || f.Rows != e.dims[m] {
			return fmt.Errorf("nmode: factor for mode %d is %dx%d, want %dx%d",
				m, f.Rows, f.Cols, e.dims[m], r)
		}
	}
	return nil
}

// runAll walks every tree once with the given operands, sequentially or
// via the prebuilt workers.
//
//spblock:hotpath
func (e *Executor) runAll(factors []*la.Matrix, out *la.Matrix) {
	ws := &e.ws
	if len(ws.runners) == 0 {
		wk := ws.walkers[0]
		if e.blocked != nil {
			for _, layer := range e.layers {
				for _, blk := range layer {
					wk.bind(blk, factors, out)
					wk.roots(0, blk.NumNodes(0))
				}
			}
			return
		}
		wk.bind(e.csf, factors, out)
		wk.roots(0, e.csf.NumNodes(0))
		return
	}
	ws.factors, ws.out = factors, out
	ws.launch()
}

// normalizeGrid clamps a requested grid to the tensor shape. Returns
// blocked=false when the request is nil or degenerates to all ones.
func normalizeGrid(grid, dims []int) ([]int, bool, error) {
	if len(grid) == 0 {
		return nil, false, nil
	}
	if len(grid) != len(dims) {
		return nil, false, fmt.Errorf("nmode: grid %v for order-%d tensor", grid, len(dims))
	}
	out := make([]int, len(grid))
	blocked := false
	for m, g := range grid {
		if g < 1 {
			g = 1
		}
		if g > dims[m] {
			g = dims[m]
		}
		out[m] = g
		if g > 1 {
			blocked = true
		}
	}
	return out, blocked, nil
}

// rootLayers buckets the non-empty blocks by their root-mode block
// coordinate. Blocks in one layer share output rows (they run
// sequentially within a worker); distinct layers are disjoint in the
// output, so workers claim whole layers from an atomic queue.
func rootLayers(bt *BlockedTensor, rootMode int) [][]*CSF {
	stride := 1
	for m := rootMode + 1; m < len(bt.Grid); m++ {
		stride *= bt.Grid[m]
	}
	byCoord := make([][]*CSF, bt.Grid[rootMode])
	for id, blk := range bt.Blocks {
		if blk == nil {
			continue
		}
		li := (id / stride) % bt.Grid[rootMode]
		byCoord[li] = append(byCoord[li], blk)
	}
	layers := byCoord[:0]
	for _, layer := range byCoord {
		if len(layer) > 0 {
			layers = append(layers, layer)
		}
	}
	return layers
}
