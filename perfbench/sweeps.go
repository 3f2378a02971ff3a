package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"spblock/internal/als"
	"spblock/internal/la"
)

var mttkrpSpan = [...]string{"mttkrp.mode0", "mttkrp.mode1", "mttkrp.mode2", "mttkrp.mode3"}

// sweepKernel adapts an MTTKRP engine to als.Kernel and times every
// completed ALS sweep from the outside: a sweep starts at its mode-0
// product and ends at the next sweep's mode-0 product, or when als.Run
// returns after it, so it includes the solves and the fit.
type sweepKernel struct {
	dims []int
	run  func(mode int, factors []*la.Matrix, out *la.Matrix) error
	tr   *tracer

	open      bool
	start     time.Time
	sweepID   int
	runClosed int

	lat     []float64 // ms per completed sweep
	lastEnd time.Time
}

func (k *sweepKernel) Dims() []int { return k.dims }

func (k *sweepKernel) MTTKRP(mode int, factors []*la.Matrix, out *la.Matrix) error {
	now := time.Now()
	if mode == 0 {
		k.close(now)
		k.open, k.start, k.sweepID = true, now, k.tr.id()
	}
	err := k.run(mode, factors, out)
	if k.tr != nil {
		k.tr.record(k.sweepID, k.sweepID, mttkrpSpan[mode], now, time.Now())
	}
	return err
}

func (k *sweepKernel) close(end time.Time) {
	if !k.open {
		return
	}
	k.open = false
	k.runClosed++
	k.lat = append(k.lat, float64(end.Sub(k.start))/1e6)
	k.lastEnd = end
	k.tr.add(k.sweepID, 0, k.sweepID, "als.sweep", k.start, end)
}

// sweepStats is the outcome of a timed sweep loop.
type sweepStats struct {
	lat       []float64
	wall      time.Duration
	attempted int
	failed    int
	// bitexact reports whether every checked fit equalled the
	// reference bit for bit.
	bitexact bool
	runs     int
}

// runSweeps repeats fixed-length CP-ALS decompositions over k until d
// has passed, stopping the last one at the deadline between mode
// products. The first fits of every decomposition are checked against
// ref; a fit further than checkRel from it is a failed op.
func runSweeps(k *sweepKernel, cfg als.Config, d time.Duration, ref []float64) sweepStats {
	st := sweepStats{bitexact: true}
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(d))
	defer cancel()
	cfg.Ctx = ctx
	for ctx.Err() == nil {
		k.runClosed = 0
		res, err := als.Run(k, cfg)
		end := time.Now()
		if res != nil && res.Iters > k.runClosed {
			k.close(end)
		}
		k.open = false
		st.runs++
		if res != nil {
			for i := 0; i < len(ref) && i < res.Iters; i++ {
				if !relClose(res.Fits[i], ref[i], checkRel) {
					st.failed++
				}
				if res.Fits[i] != ref[i] {
					st.bitexact = false
				}
			}
		}
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "als.Run: %v\n", err)
			st.failed++
			st.attempted++
			break
		}
	}
	st.lat = k.lat
	st.attempted += len(k.lat)
	st.wall = k.lastEnd.Sub(start)
	return st
}

// sweepMetrics fills the end-to-end op metrics of a sweep loop.
func sweepMetrics(m map[string]float64, st sweepStats) {
	m["op_p50_ms"] = median(st.lat)
	m["op_p90_ms"] = quantile(st.lat, 0.9)
	if st.wall > 0 {
		m["ops_per_s"] = float64(len(st.lat)) / st.wall.Seconds()
	}
}

// sweepLayerMetrics fills the ALS and MTTKRP per-layer metrics from
// the traced sweep spans. nnz is the tensor's nonzero count.
func sweepLayerMetrics(m map[string]float64, spans []span, nnz int) {
	var calls int
	var mttkrpMS float64
	for mode, name := range mttkrpSpan {
		ms := named(spans, name)
		m[fmt.Sprintf("mttkrp.mode%d_p50_ms", mode)] = median(ms)
		calls += len(ms)
		mttkrpMS += sum(ms)
	}
	if calls > 0 {
		m["mttkrp.ns_per_nnz"] = mttkrpMS * 1e6 / float64(calls) / float64(nnz)
	}
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var solve []float64
	var sweepNS, inKernelNS float64
	for _, s := range spans {
		if s.Name != "als.sweep" {
			continue
		}
		c := covered(s, kids[s.ID])
		solve = append(solve, float64(s.dur()-c)/1e6)
		sweepNS += float64(s.dur())
		inKernelNS += float64(c)
	}
	m["als.solve_p50_ms"] = median(solve)
	if sweepNS > 0 {
		m["als.mttkrp_share"] = inKernelNS / sweepNS
	}
	sh := opShares(spans, "als.sweep")
	m["self.als_share"] = sh["als"]
	m["self.mttkrp_share"] = sh["mttkrp"]
}

// zeroLayers sets every per-layer metric the workload did not fill to
// 0: the layer is bypassed.
func zeroLayers(m map[string]float64) {
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
}
