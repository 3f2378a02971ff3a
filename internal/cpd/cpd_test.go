package cpd

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"spblock/internal/als"
	"spblock/internal/core"
	"spblock/internal/engine"
	"spblock/internal/la"
	"spblock/internal/tensor"
)

// plantedTensor builds a dense tensor that is exactly rank `r` (as a
// COO with every entry stored), so CP-ALS at that rank can reach fit ≈ 1.
func plantedTensor(seed int64, dims tensor.Dims, r int) *tensor.COO {
	rng := rand.New(rand.NewSource(seed))
	var f [3]*la.Matrix
	for n := 0; n < 3; n++ {
		f[n] = la.NewMatrix(dims[n], r)
		for i := range f[n].Data {
			f[n].Data[i] = rng.Float64() + 0.1
		}
	}
	t := tensor.NewCOO(dims, dims[0]*dims[1]*dims[2])
	for i := 0; i < dims[0]; i++ {
		for j := 0; j < dims[1]; j++ {
			for k := 0; k < dims[2]; k++ {
				var s float64
				for q := 0; q < r; q++ {
					s += f[0].At(i, q) * f[1].At(j, q) * f[2].At(k, q)
				}
				t.Append(tensor.Index(i), tensor.Index(j), tensor.Index(k), s)
			}
		}
	}
	return t
}

func TestOptionsValidation(t *testing.T) {
	x := plantedTensor(1, tensor.Dims{3, 3, 3}, 1)
	if _, err := CPALS(x, Options{Rank: 0}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	bad := tensor.NewCOO(tensor.Dims{2, 2, 2}, 0)
	bad.Append(9, 0, 0, 1)
	if _, err := CPALS(bad, Options{Rank: 2}); err == nil {
		t.Fatal("invalid tensor accepted")
	}
}

func TestCPALSRecoversPlantedStructure(t *testing.T) {
	dims := tensor.Dims{8, 9, 10}
	x := plantedTensor(2, dims, 3)
	// ALS converges slowly near the optimum (the well-known "swamp"
	// behaviour), so give it plenty of sweeps.
	res, err := CPALS(x, Options{Rank: 3, MaxIters: 500, Tol: 1e-12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit() < 0.999 {
		t.Fatalf("fit = %v, want > 0.999 for an exactly rank-3 tensor", res.Fit())
	}
	// Reconstruction must match the data.
	dense, err := ReconstructDense(res, dims)
	if err != nil {
		t.Fatal(err)
	}
	var maxDiff, maxVal float64
	for p := 0; p < x.NNZ(); p++ {
		idx := (int(x.I[p])*dims[1]+int(x.J[p]))*dims[2] + int(x.K[p])
		if d := math.Abs(dense[idx] - x.Val[p]); d > maxDiff {
			maxDiff = d
		}
		if v := math.Abs(x.Val[p]); v > maxVal {
			maxVal = v
		}
	}
	if maxDiff > 0.01*maxVal {
		t.Fatalf("reconstruction error %v exceeds 1%% of max %v", maxDiff, maxVal)
	}
}

func TestCPALSFitMonotonicallyImproves(t *testing.T) {
	// ALS is a monotone algorithm: the fit must never decrease by more
	// than numerical noise between sweeps.
	dims := tensor.Dims{10, 8, 12}
	x := plantedTensor(3, dims, 5)
	res, err := CPALS(x, Options{Rank: 4, MaxIters: 40, Tol: 1e-12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Fits); i++ {
		if res.Fits[i] < res.Fits[i-1]-1e-8 {
			t.Fatalf("fit decreased at sweep %d: %v -> %v", i, res.Fits[i-1], res.Fits[i])
		}
	}
}

func TestCPALSAllKernelsAgree(t *testing.T) {
	// The decomposition trajectory is a deterministic function of the
	// seed; since every kernel computes the same MTTKRP, all plans must
	// yield identical fits (up to float round-off from different
	// summation orders).
	dims := tensor.Dims{12, 10, 8}
	x := plantedTensor(4, dims, 3)
	plans := []core.Plan{
		{Method: core.MethodSPLATT, Workers: 1},
		{Method: core.MethodCOO},
		{Method: core.MethodRankB, RankBlockCols: 16, Workers: 1},
		{Method: core.MethodMB, Grid: [3]int{2, 2, 2}, Workers: 1},
		{Method: core.MethodMBRankB, Grid: [3]int{2, 2, 2}, RankBlockCols: 16, Workers: 2},
	}
	var fits []float64
	for _, p := range plans {
		res, err := CPALS(x, Options{Rank: 3, MaxIters: 15, Tol: 1e-12, Seed: 9, Plan: p})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		fits = append(fits, res.Fit())
	}
	for i := 1; i < len(fits); i++ {
		if math.Abs(fits[i]-fits[0]) > 1e-6 {
			t.Fatalf("plan %v fit %v differs from SPLATT fit %v", plans[i], fits[i], fits[0])
		}
	}
}

func TestCPALSConvergesAndStops(t *testing.T) {
	dims := tensor.Dims{6, 6, 6}
	x := plantedTensor(5, dims, 2)
	res, err := CPALS(x, Options{Rank: 2, MaxIters: 500, Tol: 1e-9, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d sweeps (fit %v)", res.Iters, res.Fit())
	}
	if res.Iters >= 500 {
		t.Fatal("converged flag set but all iterations used")
	}
	if len(res.Fits) != res.Iters {
		t.Fatalf("fits length %d != iters %d", len(res.Fits), res.Iters)
	}
}

func TestCPALSOnSparseTensor(t *testing.T) {
	// A genuinely sparse random tensor won't fit perfectly, but ALS
	// must run, improve, and stay finite.
	rng := rand.New(rand.NewSource(6))
	dims := tensor.Dims{30, 25, 20}
	x := tensor.NewCOO(dims, 500)
	for p := 0; p < 500; p++ {
		x.Append(
			tensor.Index(rng.Intn(dims[0])),
			tensor.Index(rng.Intn(dims[1])),
			tensor.Index(rng.Intn(dims[2])),
			rng.Float64()+0.5,
		)
	}
	x.Dedup()
	res, err := CPALS(x, Options{Rank: 8, MaxIters: 25, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fits) == 0 {
		t.Fatal("no sweeps ran")
	}
	for _, f := range res.Fits {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("non-finite fit %v", f)
		}
	}
	if res.Fit() <= 0 {
		t.Fatalf("final fit %v should be positive", res.Fit())
	}
	if res.Fit() < res.Fits[0]-1e-9 {
		t.Fatal("fit regressed from first sweep")
	}
}

func TestCPALSRankLargerThanModes(t *testing.T) {
	// Rank exceeding a mode length triggers rank-deficient normal
	// equations; the ridge fallback must keep ALS alive.
	x := plantedTensor(7, tensor.Dims{4, 5, 6}, 2)
	res, err := CPALS(x, Options{Rank: 8, MaxIters: 10, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Fits {
		if math.IsNaN(f) {
			t.Fatal("NaN fit with over-complete rank")
		}
	}
}

func TestReconstructDenseGuards(t *testing.T) {
	x := plantedTensor(8, tensor.Dims{4, 4, 4}, 2)
	res, err := CPALS(x, Options{Rank: 2, MaxIters: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReconstructDense(res, tensor.Dims{4000, 4000, 4000}); err == nil {
		t.Fatal("huge reconstruction accepted")
	}
	if _, err := ReconstructDense(res, tensor.Dims{5, 4, 4}); err == nil {
		t.Fatal("mismatched dims accepted")
	}
}

func TestLambdaPositiveAndSorted(t *testing.T) {
	x := plantedTensor(9, tensor.Dims{8, 8, 8}, 3)
	res, err := CPALS(x, Options{Rank: 3, MaxIters: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for q, l := range res.Lambda {
		if l < 0 || math.IsNaN(l) {
			t.Fatalf("lambda[%d] = %v", q, l)
		}
	}
	// Factor columns are unit norm after the final sweep.
	for n := 0; n < 3; n++ {
		norms := la.ColumnNorms(res.Factors[n])
		for q, v := range norms {
			if math.Abs(v-1) > 1e-8 && v != 0 {
				t.Fatalf("factor %d column %d norm %v, want 1", n, q, v)
			}
		}
	}
}

// TestEngineKernelMatchesCPALS pins the cached-engine path: the same
// tensor, seed and plan through als.Run over a prebuilt engine, reused
// for two decompositions, must produce the bit-identical trajectory
// CPALS produces when it builds its own — the property that lets a
// serving cache substitute one for the other.
func TestEngineKernelMatchesCPALS(t *testing.T) {
	x := plantedTensor(5, tensor.Dims{10, 9, 8}, 3)
	opts := Options{
		Rank: 3, MaxIters: 12, Tol: 1e-12, Seed: 7,
		Plan: core.Plan{Method: core.MethodMB, Grid: [3]int{2, 2, 2}},
	}
	want, err := CPALS(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewMultiModeExecutor(x, opts.Plan)
	if err != nil {
		t.Fatal(err)
	}
	cfg := als.Config{Rank: opts.Rank, MaxIters: opts.MaxIters, Tol: opts.Tol, Seed: opts.Seed,
		NormX: math.Sqrt(x.NormSquared()), ErrPrefix: "cpd"}
	for trial := 0; trial < 2; trial++ { // the engine is reusable across jobs
		got, err := als.Run(EngineKernel(eng), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Fits) != len(want.Fits) {
			t.Fatalf("trial %d: %d sweeps vs %d", trial, len(got.Fits), len(want.Fits))
		}
		for i := range got.Fits {
			if got.Fits[i] != want.Fits[i] {
				t.Fatalf("trial %d sweep %d: fit %v != %v", trial, i, got.Fits[i], want.Fits[i])
			}
		}
		for mode := 0; mode < 3; mode++ {
			for i, v := range got.Factors[mode].Data {
				if v != want.Factors[mode].Data[i] {
					t.Fatalf("trial %d: factor %d differs at %d", trial, mode, i)
				}
			}
		}
	}
	// The mode-0 executor reports the plan in the caller's orientation
	// (what spblockd returns with a cpals job).
	e0, err := eng.Executor(0)
	if err != nil {
		t.Fatal(err)
	}
	if e0.Plan().String() != opts.Plan.String() {
		t.Fatalf("mode-0 plan %v, want %v", e0.Plan(), opts.Plan)
	}
}

func TestCPALSCtxCanceled(t *testing.T) {
	x := plantedTensor(5, tensor.Dims{8, 7, 6}, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := CPALS(x, Options{Rank: 2, MaxIters: 20, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CPALS err = %v, want context.Canceled", err)
	}
	if res == nil || res.Iters != 0 {
		t.Fatalf("canceled CPALS ran sweeps: %+v", res)
	}
	eng, err := engine.NewMultiModeExecutor(x, core.Plan{Method: core.MethodSPLATT})
	if err != nil {
		t.Fatal(err)
	}
	res, err = als.Run(EngineKernel(eng), als.Config{Rank: 2, MaxIters: 20, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cached-engine err = %v, want context.Canceled", err)
	}
	if res == nil || res.Iters != 0 {
		t.Fatalf("canceled cached-engine run ran sweeps: %+v", res)
	}
}
