package cpd

import (
	"fmt"
	"math"

	"spblock/internal/als"
	"spblock/internal/engine"
	"spblock/internal/nmode"
)

// NOptions configures an order-N CP-ALS decomposition.
type NOptions struct {
	// Rank is the decomposition rank R. Required.
	Rank int
	// MaxIters bounds the ALS sweeps. Default 50.
	MaxIters int
	// Tol stops iteration when the fit improves by less than this.
	// Default 1e-5.
	Tol float64
	// Kernel configures the N-mode MTTKRP (rank strips, workers, MB
	// grid). Third-order inputs take the engine's order-3 fast path.
	Kernel nmode.Options
	// Seed drives the random factor initialisation.
	Seed int64
}

// CPALSN decomposes an order-N sparse tensor with alternating least
// squares on the unified engine: one pooled mode-rooted executor per
// mode, built once per decomposition, with the sweep loop shared with
// CPALS via internal/als.
func CPALSN(t *nmode.Tensor, opts NOptions) (*als.Result, error) {
	if t.Order() < 2 {
		return nil, fmt.Errorf("cpd: CPALSN needs order >= 2")
	}
	eng, err := engine.NewNEngine(t, opts.Kernel)
	if err != nil {
		return nil, err
	}
	var normX float64
	for _, v := range t.Val {
		normX += v * v
	}
	return als.Run(engineKernel{dims: t.Dims, run: eng.Run}, als.Config{
		Rank:      opts.Rank,
		MaxIters:  opts.MaxIters,
		Tol:       opts.Tol,
		Seed:      opts.Seed,
		NormX:     math.Sqrt(normX),
		ErrPrefix: "cpd",
	})
}
