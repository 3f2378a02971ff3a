package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"spblock"
	"spblock/internal/als"
	"spblock/internal/la"
)

// runNell2 is nell2-mem: parse the NELL2 stand-in and build its
// multi-mode engine through the spblock facade, then run fixed-length
// CP-ALS decompositions through als.Run until the time is up.
func runNell2(spec childSpec, p params) (childResult, error) {
	q := p.Nell2
	tr := newTracer(spec.Traced)
	id := spec.Inputs.IDs[0]
	opts := spblock.OptionsN{Grid: q.Grid, RankBlockCols: q.RankBlockCols, Workers: q.Workers}

	var t *spblock.TensorN
	var eng *spblock.MultiExecutorN
	var setups []float64
	var heap heapPeak
	for i := 0; i < q.Setups; i++ {
		t, eng = nil, nil
		runtime.GC()
		root := tr.id()
		t0 := time.Now()
		var err error
		if t, err = spblock.LoadTNSN(id.Path); err != nil {
			return childResult{}, err
		}
		t1 := time.Now()
		if eng, err = spblock.NewMultiExecutorN(t, opts); err != nil {
			return childResult{}, err
		}
		t2 := time.Now()
		tr.record(root, 0, "nmode.parse", t0, t1)
		tr.record(root, 0, "engine.build", t1, t2)
		tr.add(root, 0, 0, "setup", t0, t2)
		setups = append(setups, t2.Sub(t0).Seconds())
		heap.sample()
	}

	// ‖X‖ summed as cpd.CPALSN sums it, after the engine build.
	var normSq float64
	for _, v := range t.Val {
		normSq += v * v
	}
	k := &sweepKernel{dims: t.Dims, run: eng.Run, tr: tr}
	st := runSweeps(k, als.Config{
		Rank: q.Rank, MaxIters: q.SweepsPerRun, Tol: noTol, Seed: spec.Seed,
		NormX: math.Sqrt(normSq), ErrPrefix: "nell2-mem",
	}, seconds(spec.Seconds), spec.Inputs.RefFits)
	heap.sample()
	runtime.KeepAlive(eng)

	res := childResult{
		Attempted: q.Setups + st.attempted,
		Failed:    st.failed,
		Metrics:   map[string]float64{"setup_s": median(setups), "mem_peak_mb": heap.mb},
		Info: map[string]any{
			"ops": len(st.lat), "decompositions": st.runs, "setup_samples_s": setups,
			"fits_bitexact": st.bitexact,
		},
	}
	res.Correct = res.Failed == 0 && len(st.lat) > 0
	sweepMetrics(res.Metrics, st)
	if !spec.Traced {
		return res, nil
	}

	m := res.Metrics
	spans := tr.all()
	parse := median(named(spans, "nmode.parse")) / 1e3
	m["nmode.parse_s"] = parse
	m["nmode.parse_mb_per_s"] = float64(id.Bytes) / 1e6 / parse
	m["engine.build_s"] = median(named(spans, "engine.build")) / 1e3
	sweepLayerMetrics(m, spans, t.NNZ())

	var bytesEst, wallNS, steals int64
	imb := 0.0
	for mode := range t.Dims {
		c, err := eng.Metrics(mode)
		if err != nil {
			return childResult{}, err
		}
		s := c.Snapshot()
		bytesEst += s.BytesEst
		wallNS += s.WallNS
		steals += s.Steals()
		imb = math.Max(imb, s.Imbalance())
	}
	m["mttkrp.eq1_gbs"] = float64(bytesEst) / float64(wallNS)
	m["sched.imbalance"] = imb
	m["sched.steals"] = float64(steals)
	eff, err := parallelEff(eng, t.Dims, q.Rank, q.Workers, spec.Seed)
	if err != nil {
		return childResult{}, err
	}
	m["sched.parallel_eff"] = eff
	zeroLayers(m)
	return res, writeSpans(spec.TracePath, spans)
}

// parallelEff times every mode product at 1 worker and at `workers`
// and returns T1 / (workers · Tw) over the summed products.
func parallelEff(eng *spblock.MultiExecutorN, dims []int, rank, workers int, seed int64) (float64, error) {
	const reps = 3
	factors := make([]*la.Matrix, len(dims))
	outs := make([]*la.Matrix, len(dims))
	for m, d := range dims {
		factors[m] = randMatrix(d, rank, seed+int64(m))
		outs[m] = la.NewMatrix(d, rank)
	}
	timeAll := func(w int) (time.Duration, error) {
		if err := eng.SetWorkers(w); err != nil {
			return 0, err
		}
		var best time.Duration
		for mode := range dims {
			var times []float64
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				if err := eng.Run(mode, factors, outs[mode]); err != nil {
					return 0, err
				}
				times = append(times, float64(time.Since(t0)))
			}
			best += time.Duration(median(times))
		}
		return best, nil
	}
	tw, err := timeAll(workers)
	if err != nil {
		return 0, err
	}
	t1, err := timeAll(1)
	if err != nil {
		return 0, err
	}
	if err := eng.SetWorkers(workers); err != nil {
		return 0, err
	}
	return float64(t1) / (float64(workers) * float64(tw)), nil
}

func randMatrix(rows, cols int, seed int64) *la.Matrix {
	m := la.NewMatrix(rows, cols)
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
