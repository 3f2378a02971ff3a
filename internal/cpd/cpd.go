// Package cpd implements the canonical polyadic decomposition via
// alternating least squares (CP-ALS), the algorithm whose inner loop is
// the MTTKRP kernel this library optimises (Sec. I: MTTKRP is "the most
// expensive part of tensor decompositions" and runs 10–1000s of times
// per decomposition).
//
// Each of the three mode products is served by a mode-permuted executor
// from internal/core, so every blocking optimisation applies to all
// three modes.
package cpd

import (
	"context"
	"fmt"
	"math"

	"spblock/internal/als"
	"spblock/internal/core"
	"spblock/internal/engine"
	"spblock/internal/la"
	"spblock/internal/metrics"
	"spblock/internal/tensor"
)

// Options configures a decomposition.
type Options struct {
	// Rank is the decomposition rank R. Required.
	Rank int
	// MaxIters bounds the ALS sweeps. Default 50.
	MaxIters int
	// Tol stops iteration when the fit improves by less than this.
	// Default 1e-5.
	Tol float64
	// Plan selects the MTTKRP kernel (its Grid is interpreted in
	// mode-1 orientation and permuted for the other modes). Default:
	// SPLATT.
	Plan core.Plan
	// Seed drives the random factor initialisation.
	Seed int64
	// Ctx cancels the decomposition between mode products (see
	// als.Config.Ctx): a canceled run returns the partial result with
	// ctx's error within one mode product. nil means never canceled.
	Ctx context.Context
}

func (o Options) withDefaults() (Options, error) {
	if o.Rank <= 0 {
		return o, fmt.Errorf("cpd: rank must be positive, got %d", o.Rank)
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 50
	}
	if o.Tol <= 0 {
		o.Tol = 1e-5
	}
	if o.Plan.Grid == ([3]int{}) {
		o.Plan.Grid = [3]int{1, 1, 1}
	}
	return o, nil
}

// Result holds a fitted Kruskal tensor: X ≈ Σ_r λ_r · A[:,r] ∘ B[:,r] ∘ C[:,r].
type Result struct {
	Lambda  []float64
	Factors [3]*la.Matrix
	// Fits records the model fit 1 − ‖X − M‖/‖X‖ after each sweep.
	Fits      []float64
	Iters     int
	Converged bool
	// Phases buckets the decomposition's wall time by phase (MTTKRP vs
	// solve vs fit) — see metrics.PhaseTimes.
	Phases metrics.PhaseTimes
	// Plan is the plan the sweeps ran on: Options.Plan with defaults
	// applied (CPALS), or the engine's plan (CPALSEngine).
	Plan core.Plan
}

// Fit returns the final fit, or 0 before any sweep ran.
func (r *Result) Fit() float64 {
	if len(r.Fits) == 0 {
		return 0
	}
	return r.Fits[len(r.Fits)-1]
}

// engineKernel adapts the order-3 multi-mode engine to the shared ALS
// core.
type engineKernel struct {
	dims []int
	eng  *engine.MultiModeExecutor
}

func (k *engineKernel) Dims() []int { return k.dims }

func (k *engineKernel) MTTKRP(mode int, factors []*la.Matrix, out *la.Matrix) error {
	return k.eng.Run(mode, [3]*la.Matrix{factors[0], factors[1], factors[2]}, out)
}

// CPALS decomposes t with alternating least squares. The sweep loop
// itself lives in internal/als; this driver only builds the engine.
func CPALS(t *tensor.COO, opts Options) (*Result, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	// Build the engine once per decomposition: each mode's permuted
	// executor is constructed a single time and its pooled workspace is
	// reused by every sweep.
	eng, err := engine.NewMultiModeExecutor(t, opts.Plan)
	if err != nil {
		return nil, err
	}
	res, err := CPALSEngine(t, eng, opts)
	if res != nil {
		// The engine reports its grid clamped to the tensor's dims;
		// report the plan the caller asked for.
		res.Plan = opts.Plan
	}
	return res, err
}

// CPALSEngine decomposes t through a caller-supplied multi-mode engine
// built over the same tensor — the path a serving cache uses to reuse
// one preprocessed executor stack across many decompositions instead of
// paying the per-mode CSF/block builds on every job. The engine must
// have all three mode executors built; its plan (not Options.Plan)
// selects the kernels, and the returned Result.Plan reports it from the
// mode-0 executor (whose permutation is the identity, so the plan is in
// the caller's orientation). The caller owns the engine's
// single-Run-per-mode exclusivity for the whole call.
func CPALSEngine(t *tensor.COO, eng *engine.MultiModeExecutor, opts Options) (*Result, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if eng == nil {
		return nil, fmt.Errorf("cpd: CPALSEngine needs a non-nil engine")
	}
	if eng.Dims() != t.Dims {
		return nil, fmt.Errorf("cpd: engine dims %v do not match tensor dims %v", eng.Dims(), t.Dims)
	}
	e0, err := eng.Executor(0)
	if err != nil {
		return nil, fmt.Errorf("cpd: %w", err)
	}
	for mode := 1; mode < 3; mode++ {
		if _, err := eng.Executor(mode); err != nil {
			return nil, fmt.Errorf("cpd: %w", err)
		}
	}
	ares, aerr := als.Run(&engineKernel{dims: t.Dims[:], eng: eng}, als.Config{
		Rank:      opts.Rank,
		MaxIters:  opts.MaxIters,
		Tol:       opts.Tol,
		Seed:      opts.Seed,
		NormX:     math.Sqrt(t.NormSquared()),
		ErrPrefix: "cpd",
		Ctx:       opts.Ctx,
	})
	if ares == nil {
		return nil, aerr
	}
	res := &Result{
		Lambda:    ares.Lambda,
		Fits:      ares.Fits,
		Iters:     ares.Iters,
		Converged: ares.Converged,
		Phases:    ares.Phases,
		Plan:      e0.Plan(),
	}
	copy(res.Factors[:], ares.Factors)
	return res, aerr
}

// ReconstructDense materialises the fitted model as a dense tensor in a
// flat I*J*K slice (row-major i, j, k) — a test and example helper for
// small shapes only.
func ReconstructDense(res *Result, dims tensor.Dims) ([]float64, error) {
	if dims.Volume() > 16e6 {
		return nil, fmt.Errorf("cpd: ReconstructDense refuses %v (too large)", dims)
	}
	a, b, c := res.Factors[0], res.Factors[1], res.Factors[2]
	if a.Rows != dims[0] || b.Rows != dims[1] || c.Rows != dims[2] {
		return nil, fmt.Errorf("cpd: factors do not match dims %v", dims)
	}
	out := make([]float64, dims[0]*dims[1]*dims[2])
	r := len(res.Lambda)
	for i := 0; i < dims[0]; i++ {
		arow := a.Row(i)
		for j := 0; j < dims[1]; j++ {
			brow := b.Row(j)
			base := (i*dims[1] + j) * dims[2]
			for k := 0; k < dims[2]; k++ {
				crow := c.Row(k)
				var s float64
				for q := 0; q < r; q++ {
					s += res.Lambda[q] * arow[q] * brow[q] * crow[q]
				}
				out[base+k] = s
			}
		}
	}
	return out, nil
}
