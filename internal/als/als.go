// Package als holds the one CP-ALS driver in the repo: Run, the sweep
// loop every decomposition goes through, and Result, the one result
// type it returns. The loop — random factor init, per-mode MTTKRP
// dispatch, Gram / Hadamard normal-equation solve, lambda
// normalisation, fit and convergence — is identical across the
// shared-memory order-3, order-N, out-of-core and distributed paths;
// only the MTTKRP kernel differs, so the kernel is the interface and
// everything else lives here exactly once. cpd.CPALS and cpd.CPALSN
// build an in-memory engine and call Run on it, spblockd calls Run on
// its cached engine, an ooc.Engine is itself a Kernel, and dist.CPALS
// wraps the distributed runtime in one.
//
// The random number stream is part of the contract: factors are
// initialised mode by mode from one rand source, and dead-column
// reseeds draw from the same source, so two kernels that are
// numerically identical produce identical trajectories (the property
// the dist-vs-cpd, cached-engine-vs-CPALS and out-of-core-vs-CPALSN
// equivalence tests pin down).
package als

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"spblock/internal/la"
	"spblock/internal/metrics"
)

// Kernel supplies the mode products for one decomposition. MTTKRP
// receives the full factor set indexed by mode (the output mode's entry
// may be ignored) and must leave out = the mode-`mode` matricised
// tensor times Khatri-Rao product.
type Kernel interface {
	Dims() []int
	MTTKRP(mode int, factors []*la.Matrix, out *la.Matrix) error
}

// SweepRecoverer is an optional Kernel extension for fault-tolerant
// kernels: when an MTTKRP dispatch fails mid-sweep, the loop asks the
// kernel whether it has recovered — e.g. the distributed runtime
// re-partitioning around a crashed rank — and, if so, restarts the
// sweep with the current factors. attempt counts restarts of this
// sweep (0 on the first failure); returning false aborts with err as a
// plain kernel failure would. Solve and normalisation errors are never
// retried — they indicate numerical trouble, not a lost rank.
type SweepRecoverer interface {
	RecoverSweep(sweep, mode, attempt int, err error) bool
}

// Config parameterises Run. Callers own their public-facing defaults;
// Run only backstops MaxIters (50) and Tol (1e-5).
type Config struct {
	Rank     int
	MaxIters int
	Tol      float64
	Seed     int64
	// NormX is ‖X‖ of the input tensor, used by the fit identity.
	NormX float64
	// ErrPrefix names the calling package in error messages ("cpd",
	// "dist"); empty means "als".
	ErrPrefix string
	// MaxSweepRetries bounds how many times one sweep may be restarted
	// through a SweepRecoverer kernel before its error becomes fatal.
	// 0 (the default) disables sweep retry entirely.
	MaxSweepRetries int
	// Ctx cancels the decomposition between mode products: the loop
	// checks it before every MTTKRP dispatch, so a canceled run stops
	// within one mode product rather than finishing the decomposition.
	// Cancellation is never retryable (it is not a kernel fault); the
	// partial result is returned with ctx's error. nil means never
	// canceled.
	Ctx context.Context
}

// Result is a fitted Kruskal tensor with one factor per mode.
type Result struct {
	Lambda    []float64
	Factors   []*la.Matrix
	Fits      []float64
	Iters     int
	Converged bool
	// Phases buckets the decomposition's wall time: MTTKRP dispatches,
	// the normal-equation solves, and the fit evaluation. Accumulated as
	// the loop runs, so a partial result from a mid-sweep error still
	// carries the time spent so far. Retried sweeps keep their aborted attempts'
	// time — it was really spent.
	Phases metrics.PhaseTimes
	// SweepRetries counts sweeps restarted through a SweepRecoverer
	// after a kernel failure (0 on a healthy run).
	SweepRetries int
}

// Fit returns the final fit, or 0 before any sweep ran.
func (r *Result) Fit() float64 {
	if len(r.Fits) == 0 {
		return 0
	}
	return r.Fits[len(r.Fits)-1]
}

// Run executes CP-ALS sweeps over k until convergence or MaxIters. On a
// mid-sweep error the partial result is returned alongside the error.
func Run(k Kernel, cfg Config) (*Result, error) {
	pfx := cfg.ErrPrefix
	if pfx == "" {
		pfx = "als"
	}
	dims := k.Dims()
	n := len(dims)
	r := cfg.Rank
	if r <= 0 {
		return nil, fmt.Errorf("%s: rank must be positive, got %d", pfx, r)
	}
	if n < 2 {
		return nil, fmt.Errorf("%s: CP-ALS needs order >= 2, got %d", pfx, n)
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 50
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-5
	}

	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{
		Lambda:  make([]float64, r),
		Factors: make([]*la.Matrix, n),
	}
	for mode := 0; mode < n; mode++ {
		m := la.NewMatrix(dims[mode], r)
		for i := range m.Data {
			m.Data[i] = rng.Float64()
		}
		res.Factors[mode] = m
	}
	grams := make([]*la.Matrix, n)
	for mode := 0; mode < n; mode++ {
		grams[mode] = la.Gram(res.Factors[mode])
	}

	outs := make([]*la.Matrix, n)
	for mode := 0; mode < n; mode++ {
		outs[mode] = la.NewMatrix(dims[mode], r)
	}

	recoverer, _ := k.(SweepRecoverer)
	// runSweep executes one full ALS sweep against the current factors,
	// reporting the failing mode and whether the error is a retryable
	// kernel failure (solve errors are not).
	runSweep := func() (failedMode int, retryable bool, err error) {
		for mode := 0; mode < n; mode++ {
			if err := ctx.Err(); err != nil {
				return mode, false, fmt.Errorf("%s: canceled before mode-%d product: %w", pfx, mode+1, err)
			}
			t0 := time.Now()
			err := k.MTTKRP(mode, res.Factors, outs[mode])
			res.Phases.MTTKRPNS += time.Since(t0).Nanoseconds()
			if err != nil {
				return mode, true, err
			}
			t0 = time.Now()
			// V = Hadamard of all other modes' Gram matrices.
			var v *la.Matrix
			for other := 0; other < n; other++ {
				if other == mode {
					continue
				}
				if v == nil {
					v = grams[other].Clone()
				} else {
					la.HadamardInPlace(v, grams[other])
				}
			}
			res.Factors[mode].CopyFrom(outs[mode])
			if err := la.SolveSPD(v, res.Factors[mode]); err != nil {
				res.Phases.SolveNS += time.Since(t0).Nanoseconds()
				return mode, false, fmt.Errorf("%s: mode-%d solve: %w", pfx, mode+1, err)
			}
			copy(res.Lambda, la.NormalizeColumns(res.Factors[mode]))
			// Guard against dead columns: a zero column would make all
			// later Gram products singular; re-seed it randomly.
			for q := 0; q < r; q++ {
				if res.Lambda[q] == 0 {
					for i := 0; i < res.Factors[mode].Rows; i++ {
						res.Factors[mode].Set(i, q, rng.Float64())
					}
				}
			}
			grams[mode] = la.Gram(res.Factors[mode])
			res.Phases.SolveNS += time.Since(t0).Nanoseconds()
		}
		return 0, false, nil
	}
	prevFit := 0.0
	for iter := 0; iter < cfg.MaxIters; iter++ {
		// Retryable sweep: a mid-sweep kernel failure is handed to the
		// kernel's SweepRecoverer (if any); on recovery — e.g. after the
		// distributed runtime re-partitioned around a crashed rank — the
		// sweep restarts against the current (possibly half-updated)
		// factors, which is still a valid ALS state. On a fault-free run
		// this loop runs the sweep exactly once, preserving the rng
		// stream and trajectory bit for bit.
		for attempt := 0; ; attempt++ {
			failedMode, retryable, err := runSweep()
			if err == nil {
				break
			}
			if !retryable || recoverer == nil || attempt >= cfg.MaxSweepRetries ||
				!recoverer.RecoverSweep(iter, failedMode, attempt, err) {
				return res, err
			}
			res.SweepRetries++
		}

		t0 := time.Now()
		fit := fit(cfg.NormX, res, grams, outs[n-1])
		res.Phases.NormNS += time.Since(t0).Nanoseconds()
		res.Fits = append(res.Fits, fit)
		res.Iters = iter + 1
		if iter > 0 && math.Abs(fit-prevFit) < cfg.Tol {
			res.Converged = true
			break
		}
		prevFit = fit
	}
	return res, nil
}

// fit evaluates 1 − ‖X − M‖/‖X‖ with the standard identity
// ‖X − M‖² = ‖X‖² + ‖M‖² − 2⟨X, M⟩: ‖M‖² = λᵀ (∘_n G_n) λ, and ⟨X, M⟩
// falls out of the last mode's MTTKRP against the (normalised) last
// factor and λ.
func fit(normX float64, res *Result, grams []*la.Matrix, lastMTTKRP *la.Matrix) float64 {
	r := len(res.Lambda)
	var gAll *la.Matrix
	for _, g := range grams {
		if gAll == nil {
			gAll = g.Clone()
		} else {
			la.HadamardInPlace(gAll, g)
		}
	}
	var normM2 float64
	for p := 0; p < r; p++ {
		row := gAll.Row(p)
		for q := 0; q < r; q++ {
			normM2 += res.Lambda[p] * res.Lambda[q] * row[q]
		}
	}
	if normM2 < 0 {
		normM2 = 0
	}
	var inner float64
	last := res.Factors[len(res.Factors)-1]
	for i := 0; i < last.Rows; i++ {
		frow, mrow := last.Row(i), lastMTTKRP.Row(i)
		for q := 0; q < r; q++ {
			inner += res.Lambda[q] * frow[q] * mrow[q]
		}
	}
	residual2 := normX*normX + normM2 - 2*inner
	if residual2 < 0 {
		residual2 = 0
	}
	if normX == 0 {
		return 1
	}
	return 1 - math.Sqrt(residual2)/normX
}
