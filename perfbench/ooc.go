package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spblock/internal/als"
	"spblock/internal/nmode"
	"spblock/internal/ooc"
)

// runOOC is ooc-order4: stage the order-4 tensor into MB blocks on disk
// and open it under a working-set budget (ooc.Stage, ooc.Open), then
// run fixed-length CP-ALS decompositions that stream every MTTKRP
// through the engine's prefetch pipeline until the time is up.
func runOOC(spec childSpec, p params) (childResult, error) {
	q := p.OOC
	tr := newTracer(spec.Traced)
	id := spec.Inputs.IDs[0]

	var eng *ooc.Engine
	var setups []float64
	var heap heapPeak
	badStages := 0
	for i := 0; i < q.Setups; i++ {
		if eng != nil {
			if err := eng.Close(); err != nil {
				return childResult{}, err
			}
			eng = nil
		}
		dir := filepath.Join(spec.Dir, fmt.Sprintf("stage-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return childResult{}, err
		}
		runtime.GC()
		root := tr.id()
		t0 := time.Now()
		man, err := ooc.Stage(id.Path, dir, ooc.StageOptions{Grid: q.Grid})
		if err != nil {
			return childResult{}, err
		}
		t1 := time.Now()
		budget := int64(q.BudgetFrac * float64(man.TotalBlockBytes()))
		if eng, err = ooc.Open(dir, ooc.Options{BudgetBytes: budget, Decoders: q.Decoders}); err != nil {
			return childResult{}, err
		}
		t2 := time.Now()
		tr.record(root, 0, "ooc.stage", t0, t1)
		tr.record(root, 0, "ooc.open", t1, t2)
		tr.add(root, 0, 0, "setup", t0, t2)
		setups = append(setups, t2.Sub(t0).Seconds())
		// The staged layout is a pure function of the input and the
		// grid: it must match the generator's.
		if h, err := manifestHash(man); err != nil || h != id.Fingerprint {
			badStages++
		}
		heap.sample()
	}
	defer eng.Close()

	k := &sweepKernel{dims: eng.Dims(), run: eng.MTTKRP, tr: tr}
	st := runSweeps(k, als.Config{
		Rank: q.Rank, MaxIters: q.SweepsPerRun, Tol: noTol, Seed: spec.Seed,
		NormX: math.Sqrt(eng.NormSq()), ErrPrefix: "ooc-order4",
	}, seconds(spec.Seconds), spec.Inputs.RefFits)
	heap.sample()

	res := childResult{
		Attempted: q.Setups + st.attempted,
		Failed:    badStages + st.failed,
		Metrics:   map[string]float64{"setup_s": median(setups), "mem_peak_mb": heap.mb},
		Info: map[string]any{
			"ops": len(st.lat), "decompositions": st.runs, "setup_samples_s": setups,
			"fits_bitexact": st.bitexact, "slots": eng.Depth(), "blocks": eng.NumBlocks(),
		},
	}
	res.Correct = res.Failed == 0 && len(st.lat) > 0
	sweepMetrics(res.Metrics, st)
	if !spec.Traced {
		return res, nil
	}

	m := res.Metrics
	parse, err := parseProbe(tr, id.Path, q.Setups)
	if err != nil {
		return childResult{}, err
	}
	spans := tr.all()
	m["nmode.parse_s"] = parse
	m["nmode.parse_mb_per_s"] = float64(id.Bytes) / 1e6 / parse
	m["ooc.stage_s"] = median(named(spans, "ooc.stage")) / 1e3
	sweepLayerMetrics(m, spans, int(eng.NNZ()))

	var bytesEst, wallNS, ioWait, prefetch, overlap, runs int64
	for mode := range eng.Dims() {
		s := eng.Metrics(mode).Snapshot()
		bytesEst += s.BytesEst
		wallNS += s.WallNS
		ioWait += s.IOWaitNS
		prefetch += s.PrefetchTotalNS()
		overlap += s.OverlapNS()
		runs += s.Runs
	}
	sweeps := float64(runs) / float64(len(eng.Dims()))
	m["mttkrp.eq1_gbs"] = float64(bytesEst) / float64(wallNS)
	m["ooc.iowait_frac"] = float64(ioWait) / float64(wallNS)
	m["ooc.prefetch_ms_per_sweep"] = float64(prefetch) / 1e6 / sweeps
	m["ooc.overlap_frac"] = float64(overlap) / float64(prefetch)
	m["ooc.slots"] = float64(eng.Depth())
	m["ooc.resident_mb"] = float64(eng.WorkingSetBytes()) / (1 << 20)
	m["ooc.parity_bitexact"] = float64(btoi(st.bitexact))
	zeroLayers(m)
	return res, writeSpans(spec.TracePath, spans)
}

// parseProbe times n passes of the .tns stream reader that ooc.Stage
// parses with, and returns the median pass in seconds.
func parseProbe(tr *tracer, path string, n int) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := parsePass(path); err != nil {
			return 0, err
		}
		t1 := time.Now()
		tr.record(0, 0, "nmode.parse", t0, t1)
		secs = append(secs, t1.Sub(t0).Seconds())
	}
	return median(secs), nil
}

func parsePass(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st := nmode.NewTNSStream(f)
	for {
		if _, _, err := st.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}
