// Package cpd implements the canonical polyadic decomposition via
// alternating least squares (CP-ALS), the algorithm whose inner loop is
// the MTTKRP kernel this library optimises (Sec. I: MTTKRP is "the most
// expensive part of tensor decompositions" and runs 10–1000s of times
// per decomposition).
//
// The sweep loop and the result type are internal/als's; this package
// only builds the in-memory engine the loop runs on, one builder per
// executor stack: CPALS serves each of the three mode products of an
// order-3 tensor with a mode-permuted executor from internal/core (so
// every blocking optimisation applies to all three modes), and CPALSN
// serves order-N tensors from an engine.NEngine.
package cpd

import (
	"context"
	"fmt"
	"math"

	"spblock/internal/als"
	"spblock/internal/core"
	"spblock/internal/engine"
	"spblock/internal/la"
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

// engineKernel adapts an in-memory engine's per-mode Run to als.Kernel.
// It is the one adapter behind CPALS, CPALSN and every caller that
// reuses a cached engine (EngineKernel).
type engineKernel struct {
	dims []int
	run  func(mode int, factors []*la.Matrix, out *la.Matrix) error
}

func (k engineKernel) Dims() []int { return k.dims }

func (k engineKernel) MTTKRP(mode int, factors []*la.Matrix, out *la.Matrix) error {
	return k.run(mode, factors, out)
}

// EngineKernel serves every mode product of a decomposition from an
// order-3 multi-mode engine, so als.Run can reuse one preprocessed
// executor stack across many decompositions (spblockd's cache) instead
// of paying the per-mode CSF/block builds on every job. The engine must
// have all three mode executors built, and the caller owns its
// single-Run-per-mode exclusivity for the whole decomposition.
func EngineKernel(eng *engine.MultiModeExecutor) als.Kernel {
	dims := eng.Dims()
	return engineKernel{dims: dims[:], run: func(mode int, f []*la.Matrix, out *la.Matrix) error {
		return eng.Run(mode, [3]*la.Matrix{f[0], f[1], f[2]}, out)
	}}
}

// CPALS decomposes t with alternating least squares. The sweep loop
// itself lives in internal/als; this driver only builds the engine,
// once per decomposition: each mode's permuted executor is constructed
// a single time and its pooled workspace is reused by every sweep.
func CPALS(t *tensor.COO, opts Options) (*als.Result, error) {
	eng, err := engine.NewMultiModeExecutor(t, opts.Plan)
	if err != nil {
		return nil, err
	}
	return als.Run(EngineKernel(eng), als.Config{
		Rank:      opts.Rank,
		MaxIters:  opts.MaxIters,
		Tol:       opts.Tol,
		Seed:      opts.Seed,
		NormX:     math.Sqrt(t.NormSquared()),
		ErrPrefix: "cpd",
		Ctx:       opts.Ctx,
	})
}

// ReconstructDense materialises the fitted model as a dense tensor in a
// flat I*J*K slice (row-major i, j, k) — a test and example helper for
// small shapes only.
func ReconstructDense(res *als.Result, dims tensor.Dims) ([]float64, error) {
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
