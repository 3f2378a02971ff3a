// Package engine is the shared execution layer between the mode-1
// MTTKRP kernels of internal/core and the decompositions built on them
// (als.Run through cpd.CPALS, cpd.CPALSN and spblockd's cached stacks;
// cpapr; dist.CPALS): it owns the mode-permutation identity that serves
// all three mode products with one kernel family (Sec. III-B — the
// three products are structurally identical) and amortises the
// per-mode preprocessing across an entire decomposition.
//
// A MultiModeExecutor builds the requested mode-permuted executors
// exactly once per tensor. The permuted views it feeds them are
// zero-copy (pure coordinate-slice relabelling), so the only real
// per-mode cost is the CSF or block build the method actually needs —
// and each executor's pooled workspace (see internal/core) makes the
// 10–1000s of Run calls of a CP-ALS sweep allocation-free in steady
// state.
package engine

import (
	"fmt"

	"spblock/internal/core"
	"spblock/internal/kernel"
	"spblock/internal/la"
	"spblock/internal/metrics"
	"spblock/internal/tensor"
)

// ModeSpec describes how mode n's MTTKRP is expressed as a mode-1
// product: Perm permutes the tensor so mode n leads, and BFactor /
// CFactor name which factor matrices act as the mode-1 kernel's B and
// C operands after the permutation.
type ModeSpec struct {
	Perm    [3]int
	BFactor int
	CFactor int
}

// ModePerm is the order-N generalisation of the mode table: the
// mode-rooted permutation for `mode` of an order-`order` tensor puts
// the output mode first and keeps the remaining modes in ascending
// order. The 3-entry Modes table is derived from it, and the order-N
// engine uses it directly.
func ModePerm(order, mode int) []int {
	p := make([]int, 1, order)
	p[0] = mode
	for m := 0; m < order; m++ {
		if m != mode {
			p = append(p, m)
		}
	}
	return p
}

// Modes is the single source of truth for the mode→(permutation,
// operand order) mapping used by every third-order decomposition
// driver: after the permutation, the mode-1 kernel's B and C operands
// are the factors of the two trailing permuted modes.
var Modes = func() [3]ModeSpec {
	var specs [3]ModeSpec
	for n := 0; n < 3; n++ {
		p := ModePerm(3, n)
		specs[n] = ModeSpec{Perm: [3]int{p[0], p[1], p[2]}, BFactor: p[1], CFactor: p[2]}
	}
	return specs
}()

// PermuteView returns a mode-permuted view of t that shares t's
// coordinate and value storage: new mode m holds what old mode perm[m]
// held, and no nonzero is copied (permuting a COO tensor is pure slice
// relabelling). The view aliases t — mutating either one's entries is
// visible through both — which is safe as executor input because the
// CSF and blocked builders clone before sorting; only MethodCOO
// executors keep reading the shared storage.
func PermuteView(t *tensor.COO, perm [3]int) (*tensor.COO, error) {
	seen := [3]bool{}
	for _, p := range perm {
		if p < 0 || p > 2 || seen[p] {
			return nil, fmt.Errorf("%w: bad mode permutation %v", tensor.ErrBadTensor, perm)
		}
		seen[p] = true
	}
	coords := [3][]tensor.Index{t.I, t.J, t.K}
	return &tensor.COO{
		Dims: tensor.Dims{t.Dims[perm[0]], t.Dims[perm[1]], t.Dims[perm[2]]},
		I:    coords[perm[0]],
		J:    coords[perm[1]],
		K:    coords[perm[2]],
		Val:  t.Val,
	}, nil
}

// PermutePlan orients plan for mode n of a tensor with the given
// (unpermuted) dims: the MB grid is permuted along with the tensor
// modes so the same spatial blocks apply, then clamped to the permuted
// mode lengths. A zero grid is defaulted to {1,1,1} first.
func PermutePlan(plan core.Plan, n int, dims tensor.Dims) core.Plan {
	if plan.Grid == ([3]int{}) {
		plan.Grid = [3]int{1, 1, 1}
	}
	perm := Modes[n].Perm
	grid := [3]int{plan.Grid[perm[0]], plan.Grid[perm[1]], plan.Grid[perm[2]]}
	for m := 0; m < 3; m++ {
		if grid[m] < 1 {
			grid[m] = 1
		}
		if d := dims[perm[m]]; grid[m] > d {
			grid[m] = d
		}
	}
	plan.Grid = grid
	return plan
}

// MultiModeExecutor serves MTTKRP for several modes of one tensor,
// building each mode's permuted executor exactly once. A decomposition
// driver constructs it up front and then calls Run per mode per sweep;
// all preprocessing (permutation, CSF/block builds, workspace sizing)
// is amortised across the whole decomposition.
//
// Like core.Executor, one MultiModeExecutor must not Run the same mode
// concurrently with itself; distinct modes have distinct executors and
// workspaces, so running different modes from different goroutines is
// safe.
type MultiModeExecutor struct {
	dims  tensor.Dims
	execs [3]*core.Executor
}

// NewMultiModeExecutor builds executors for the requested modes
// (default: all three) of t under plan. The plan's grid is interpreted
// in mode-1 orientation and permuted per mode. With MethodCOO the
// executors alias t's storage; other methods copy what they need
// during preprocessing.
func NewMultiModeExecutor(t *tensor.COO, plan core.Plan, modes ...int) (*MultiModeExecutor, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if len(modes) == 0 {
		modes = []int{0, 1, 2}
	}
	m := &MultiModeExecutor{dims: t.Dims}
	for _, n := range modes {
		if n < 0 || n > 2 {
			return nil, fmt.Errorf("engine: mode %d out of range [0,2]", n)
		}
		if m.execs[n] != nil {
			continue
		}
		pt, err := PermuteView(t, Modes[n].Perm)
		if err != nil {
			return nil, err
		}
		e, err := core.NewExecutor(pt, PermutePlan(plan, n, t.Dims))
		if err != nil {
			return nil, fmt.Errorf("engine: mode %d: %w", n, err)
		}
		m.execs[n] = e
	}
	return m, nil
}

// Run computes out = MTTKRP over mode n, selecting the B and C
// operands from factors by the mode's spec. out must be dims[n] rows.
//
//spblock:hotpath
func (m *MultiModeExecutor) Run(n int, factors [3]*la.Matrix, out *la.Matrix) error {
	e, err := m.executor(n)
	if err != nil {
		return err
	}
	mp := Modes[n]
	return e.Run(factors[mp.BFactor], factors[mp.CFactor], out)
}

// Executor returns mode n's underlying executor, for callers that want
// to drive the B/C operands themselves.
func (m *MultiModeExecutor) Executor(n int) (*core.Executor, error) {
	return m.executor(n)
}

// Metrics returns mode n's instrumentation collector (see
// core.Executor.Metrics). Each mode's executor collects independently.
func (m *MultiModeExecutor) Metrics(n int) (*metrics.Collector, error) {
	e, err := m.executor(n)
	if err != nil {
		return nil, err
	}
	return e.Metrics(), nil
}

// Sched reports the resolved scheduler identity of mode n's executor
// (see core.Executor.Sched); empty for sequential executors.
func (m *MultiModeExecutor) Sched(n int) (string, error) {
	e, err := m.executor(n)
	if err != nil {
		return "", err
	}
	return e.Sched(), nil
}

// Kernel reports the register-block kernel variant mode n's executor
// dispatches through (see core.Executor.Kernel).
func (m *MultiModeExecutor) Kernel(n int) (kernel.Variant, error) {
	e, err := m.executor(n)
	if err != nil {
		return kernel.Variant{}, err
	}
	return e.Kernel(), nil
}

// SetWorkers re-sizes every built mode executor's parallelism mid-life
// (see core.Executor.SetWorkers): worker closures, queue layouts and
// metrics buckets are rebuilt for n workers (0 = GOMAXPROCS) while the
// preprocessed per-mode structures are kept. Must not be called while
// any mode is mid-Run — the caller owns the same exclusivity rule Run
// does (a serving cache holds the executor's lease across the call).
func (m *MultiModeExecutor) SetWorkers(n int) error {
	for _, e := range m.execs {
		if e == nil {
			continue
		}
		if err := e.SetWorkers(n); err != nil {
			return err
		}
	}
	return nil
}

// MemoryBytes sums the preprocessed-structure footprint of every built
// mode executor — what a serving cache charges one cached multi-mode
// stack against its byte budget.
func (m *MultiModeExecutor) MemoryBytes() int64 {
	var s int64
	for _, e := range m.execs {
		if e != nil {
			s += e.MemoryBytes()
		}
	}
	return s
}

//spblock:coldpath
func (m *MultiModeExecutor) executor(n int) (*core.Executor, error) {
	if n < 0 || n > 2 {
		return nil, fmt.Errorf("engine: mode %d out of range [0,2]", n)
	}
	if m.execs[n] == nil {
		return nil, fmt.Errorf("engine: mode %d was not requested at construction", n)
	}
	return m.execs[n], nil
}

// Dims returns the unpermuted tensor shape.
func (m *MultiModeExecutor) Dims() tensor.Dims { return m.dims }
