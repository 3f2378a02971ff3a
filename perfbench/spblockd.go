package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"spblock"
	"spblock/internal/gen"
	"spblock/internal/metrics"
	"spblock/internal/server"
)

// svcCacheBytes is spblockd-mix's executor-cache budget: about half of
// the eight built SPLATT stacks (a 40k-nnz NELL2-shaped tensor plus its
// three mode executors is about 2.7 MB). It is a constant, not derived
// from the stacks' measured size, so that a change that shrinks the
// stacks shows as fewer evictions and rebuilds. It must hold at least
// two built stacks plus a re-uploaded tensor: the cache may evict a
// re-uploaded tensor before its retried job arrives if the other
// client's newer stacks alone fill the budget.
const svcCacheBytes = 12 << 20

// runService is spblockd-mix: an in-process spblockd (server.New(...).
// Handler() behind a loopback listener) with the tensors uploaded,
// driven by a closed loop of clients, one tenant each, until the time
// is up. A job that gets 404 because its tensor was evicted re-uploads
// it and retries once; the op's latency includes both.
func runService(spec childSpec, p params) (childResult, error) {
	q := p.Svc
	tr := newTracer(spec.Traced)
	bodies := make([][]byte, len(spec.Inputs.IDs))
	for i, id := range spec.Inputs.IDs {
		b, err := os.ReadFile(id.Path)
		if err != nil {
			return childResult{}, err
		}
		bodies[i] = b
	}

	var srv *svc
	var setups []float64
	var heap heapPeak
	badUploads := 0
	for i := 0; i < q.Setups; i++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return childResult{}, err
			}
		}
		root := tr.id()
		t0 := time.Now()
		var err error
		if srv, err = startService(q); err != nil {
			return childResult{}, err
		}
		c := srv.client("setup", tr)
		for j, body := range bodies {
			fp, err := c.upload(body, root, 0)
			if err != nil {
				return childResult{}, err
			}
			if fp != spec.Inputs.IDs[j].Fingerprint {
				badUploads++
			}
		}
		t1 := time.Now()
		tr.add(root, 0, 0, "setup", t0, t1)
		setups = append(setups, t1.Sub(t0).Seconds())
		heap.sample()
	}
	defer srv.close()

	before, err := srv.scrape()
	if err != nil {
		return childResult{}, err
	}
	ops := srv.closedLoop(spec, q, bodies, tr)
	after, err := srv.scrape()
	if err != nil {
		return childResult{}, err
	}
	heap.sample()

	var lat, service, wait []float64
	var nre, failed int
	var lastEnd time.Time
	start := ops.start
	for _, o := range ops.ops {
		if !o.ok {
			failed++
			continue
		}
		lat = append(lat, o.latMS)
		service = append(service, o.serviceMS)
		wait = append(wait, o.latMS-o.serviceMS-o.reuploadMS)
		if o.reupload {
			nre++
		}
		if o.end.After(lastEnd) {
			lastEnd = o.end
		}
	}
	failed += ops.fitMismatches
	res := childResult{
		Attempted: q.Setups*len(bodies) + len(ops.ops),
		Failed:    badUploads + failed,
		Metrics: map[string]float64{
			"setup_s":     median(setups),
			"mem_peak_mb": heap.mb,
			"op_p50_ms":   median(lat),
			"op_p90_ms":   quantile(lat, 0.9),
		},
		Info: map[string]any{
			"ops": len(ops.ops), "reuploads": nre, "setup_samples_s": setups,
			"fit_mismatches": ops.fitMismatches, "evictions": after.evictions - before.evictions,
		},
	}
	if wall := lastEnd.Sub(start); wall > 0 {
		res.Metrics["ops_per_s"] = float64(len(lat)) / wall.Seconds()
	}
	res.Correct = res.Failed == 0 && len(lat) > 0
	if !spec.Traced {
		return res, nil
	}

	m := res.Metrics
	if err := svcProbes(m, tr, bodies, q); err != nil {
		return childResult{}, err
	}
	spans := tr.all()
	njobs := float64(len(ops.ops))
	m["server.upload_p50_ms"] = median(named(spans, "server.upload"))
	m["server.service_p50_ms"] = median(service)
	m["server.wait_p50_ms"] = median(wait)
	hits, misses := after.hits-before.hits, after.misses-before.misses
	if hits+misses > 0 {
		m["server.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["server.reuploads_per_job"] = float64(nre) / njobs
	m["server.builds_per_job"] = float64(after.builds-before.builds) / njobs
	m["server.evictions"] = float64(after.evictions - before.evictions)

	// The kernel side, from the counters the service exports: per-mode
	// wall time per run of every stack still cached (the /metrics
	// scrape), and the Equation 1 traffic of the mttkrp jobs' snapshots.
	var wallNS, nnz int64
	for mode := 0; mode < 3; mode++ {
		var perRun []float64
		for _, mc := range after.modes {
			if mc.mode == mode && mc.runs > 0 {
				perRun = append(perRun, float64(mc.wallNS)/float64(mc.runs)/1e6)
				wallNS += mc.wallNS
				nnz += mc.nnz
			}
		}
		m[fmt.Sprintf("mttkrp.mode%d_p50_ms", mode)] = median(perRun)
	}
	if nnz > 0 {
		m["mttkrp.ns_per_nnz"] = float64(wallNS) / float64(nnz)
	}
	var eqBytes, eqNS int64
	for _, snaps := range ops.snaps {
		for _, s := range snaps {
			eqBytes += s.BytesEst
			eqNS += s.WallNS
		}
	}
	if eqNS > 0 {
		m["mttkrp.eq1_gbs"] = float64(eqBytes) / float64(eqNS)
	}
	sh := opShares(spans, "client.op")
	m["self.server_share"] = sh["server"]
	m["self.client_share"] = sh["client"]
	zeroLayers(m)
	return res, writeSpans(spec.TracePath, spans)
}

// svcProbes times, on every upload body, the calls the service makes
// when it ingests a tensor or builds its stack: the .tns parse, the
// content fingerprint and the multi-mode executor build.
func svcProbes(m map[string]float64, tr *tracer, bodies [][]byte, q svcParams) error {
	var parse, fp, build []float64
	var mb float64
	plan := spblock.Plan{Method: spblock.MethodSPLATT, Workers: q.Workers}
	for _, b := range bodies {
		t0 := time.Now()
		t, err := spblock.ReadTNS(bytes.NewReader(b))
		if err != nil {
			return err
		}
		t.Dedup()
		t1 := time.Now()
		_ = spblock.Fingerprint(t)
		t2 := time.Now()
		if _, err := spblock.NewMultiExecutor(t, plan); err != nil {
			return err
		}
		t3 := time.Now()
		tr.record(0, 0, "nmode.parse", t0, t1)
		tr.record(0, 0, "server.fingerprint", t1, t2)
		tr.record(0, 0, "engine.build", t2, t3)
		parse = append(parse, t1.Sub(t0).Seconds())
		fp = append(fp, float64(t2.Sub(t1))/1e6)
		build = append(build, t3.Sub(t2).Seconds())
		mb += float64(len(b)) / 1e6
	}
	m["nmode.parse_s"] = median(parse)
	m["nmode.parse_mb_per_s"] = mb / sum(parse)
	m["server.fingerprint_ms"] = median(fp)
	m["engine.build_s"] = median(build)
	return nil
}

// svc is one running service behind a loopback listener.
type svc struct {
	url  string
	hs   *http.Server
	done chan error
	http *http.Client
}

func startService(q svcParams) (*svc, error) {
	s := server.New(server.Options{
		Cache: server.CacheConfig{
			MaxBytes: q.CacheBytes,
			Plan:     spblock.Plan{Method: spblock.MethodSPLATT, Workers: q.Workers},
		},
		MaxConcurrent: q.MaxConcurrent,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	v := &svc{
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: s.Handler()},
		done: make(chan error, 1),
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: q.Clients + 1}},
	}
	go func() { v.done <- v.hs.Serve(ln) }()
	return v, nil
}

// close shuts the service down and waits for its serve loop to end.
func (v *svc) close() error {
	v.http.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := v.hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-v.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// svcClient is one tenant's connection to the service.
type svcClient struct {
	v      *svc
	tenant string
	tr     *tracer
}

func (v *svc) client(tenant string, tr *tracer) *svcClient {
	return &svcClient{v: v, tenant: tenant, tr: tr}
}

func (c *svcClient) post(path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.v.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Tenant", c.tenant)
	resp, err := c.v.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// upload posts a .tns body and returns the fingerprint the service
// registered it under.
func (c *svcClient) upload(body []byte, parent, op int) (string, error) {
	t0 := time.Now()
	status, out, err := c.post("/tensors", body)
	c.tr.record(parent, op, "server.upload", t0, time.Now())
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("upload: status %d: %s", status, bytes.TrimSpace(out))
	}
	var r struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(out, &r); err != nil {
		return "", err
	}
	return r.Fingerprint, nil
}

type jobRequest struct {
	Fingerprint string  `json:"fingerprint"`
	Kind        string  `json:"kind"`
	Rank        int     `json:"rank"`
	MaxIters    int     `json:"maxIters,omitempty"`
	Tol         float64 `json:"tol,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	Reps        int     `json:"reps,omitempty"`
}

type jobResponse struct {
	ElapsedMs float64            `json:"elapsedMs"`
	Iters     int                `json:"iters"`
	Fit       float64            `json:"fit"`
	ModeSnap  []metrics.Snapshot `json:"modeSnapshots"`
}

func (c *svcClient) job(req jobRequest, parent, op int) (int, jobResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, jobResponse{}, err
	}
	t0 := time.Now()
	status, out, err := c.post("/jobs", body)
	c.tr.record(parent, op, "server.job", t0, time.Now())
	var r jobResponse
	switch {
	case err != nil:
	case status == http.StatusOK:
		err = json.Unmarshal(out, &r)
	case status != http.StatusNotFound:
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(out))
	}
	return status, r, err
}

// opResult is one client op.
type opResult struct {
	ok         bool
	latMS      float64
	serviceMS  float64
	reupload   bool
	reuploadMS float64
	end        time.Time
}

type loopResult struct {
	start         time.Time
	ops           []opResult
	fitMismatches int
	// snaps holds the latest per-mode snapshots an mttkrp job
	// returned for each tensor (they are cumulative per stack).
	snaps map[string][]metrics.Snapshot
}

// closedLoop runs q.Clients clients, each sending its next job only
// after the previous one completed, until spec.Seconds have passed.
// Each client picks a tensor by a seeded Zipf(q.ZipfS) draw and a job
// kind at q.CPALSPerMTT cpals to one mttkrp. Every cpals fit must equal
// the first fit seen for its tensor and seed, rebuilds included.
func (v *svc) closedLoop(spec childSpec, q svcParams, bodies [][]byte, tr *tracer) loopResult {
	weights := make([]float64, len(bodies))
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -q.ZipfS)
	}
	zipf := gen.NewCategorical(weights)
	fps := make([]string, len(bodies))
	for i, id := range spec.Inputs.IDs {
		fps[i] = id.Fingerprint
	}

	lr := loopResult{start: time.Now(), snaps: map[string][]metrics.Snapshot{}}
	deadline := lr.start.Add(seconds(spec.Seconds))
	var mu sync.Mutex
	firstFit := map[string]float64{}
	var wg sync.WaitGroup
	for ci := 0; ci < q.Clients; ci++ {
		c := v.client(fmt.Sprintf("tenant-%d", ci), tr)
		rng := rand.New(rand.NewSource(gen.SubSeed(spec.Seed, 1000+ci)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				ti := zipf.Sample(rng)
				req := jobRequest{Fingerprint: fps[ti], Rank: q.Rank, Seed: int64(1 + rng.Intn(q.JobSeeds))}
				if rng.Intn(q.CPALSPerMTT+1) < q.CPALSPerMTT {
					req.Kind, req.MaxIters, req.Tol = "cpals", q.CPALSSweeps, noTol
				} else {
					req.Kind, req.Reps = "mttkrp", q.MTTKRPReps
				}
				o, resp := c.op(req, bodies[ti])
				mu.Lock()
				lr.ops = append(lr.ops, o)
				if o.ok && req.Kind == "cpals" {
					key := fmt.Sprintf("%s/%d", req.Fingerprint, req.Seed)
					if f, seen := firstFit[key]; !seen {
						firstFit[key] = resp.Fit
					} else if f != resp.Fit {
						lr.fitMismatches++
					}
				}
				if o.ok && req.Kind == "mttkrp" {
					lr.snaps[req.Fingerprint] = resp.ModeSnap
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lr
}

// op sends one job, re-uploading the tensor and retrying once when the
// service answers 404 because the tensor was evicted.
func (c *svcClient) op(req jobRequest, body []byte) (opResult, jobResponse) {
	id := c.tr.id()
	t0 := time.Now()
	var o opResult
	status, resp, err := c.job(req, id, id)
	if err == nil && status == http.StatusNotFound {
		u0 := time.Now()
		_, err = c.upload(body, id, id)
		o.reupload, o.reuploadMS = true, float64(time.Since(u0))/1e6
		if err == nil {
			status, resp, err = c.job(req, id, id)
		}
	}
	o.end = time.Now()
	o.latMS = float64(o.end.Sub(t0)) / 1e6
	o.ok = err == nil && status == http.StatusOK
	if o.ok {
		o.serviceMS = resp.ElapsedMs
	} else {
		fmt.Fprintf(os.Stderr, "spblockd-mix: %s job on %.12s failed (re-uploaded %v): status %d, %v\n",
			req.Kind, req.Fingerprint, o.reupload, status, err)
	}
	c.tr.add(id, 0, id, "client.op", t0, o.end)
	return o, resp
}

// scrapeResult holds the /metrics counters the benchmark reads.
type scrapeResult struct {
	hits, misses, builds, evictions int64
	modes                           []modeCounters
}

type modeCounters struct {
	mode              int
	runs, wallNS, nnz int64
}

func (v *svc) scrape() (scrapeResult, error) {
	resp, err := v.http.Get(v.url + "/metrics")
	if err != nil {
		return scrapeResult{}, err
	}
	defer resp.Body.Close()
	var r scrapeResult
	byKey := map[string]*modeCounters{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, labels, val, ok := parseSample(sc.Text())
		if !ok {
			continue
		}
		switch name {
		case "spblockd_cache_hits_total":
			r.hits = val
		case "spblockd_cache_misses_total":
			r.misses = val
		case "spblockd_executor_builds_total":
			r.builds = val
		case "spblockd_cache_evictions_total":
			r.evictions = val
		case "spblockd_mode_runs_total", "spblockd_mode_wall_ns_total", "spblockd_mode_nnz_total":
			mc := byKey[labels]
			if mc == nil {
				mc = &modeCounters{mode: modeLabel(labels)}
				byKey[labels] = mc
			}
			switch name {
			case "spblockd_mode_runs_total":
				mc.runs = val
			case "spblockd_mode_wall_ns_total":
				mc.wallNS = val
			default:
				mc.nnz = val
			}
		}
	}
	if err := sc.Err(); err != nil {
		return scrapeResult{}, err
	}
	for _, k := range sortedKeys(byKey) {
		r.modes = append(r.modes, *byKey[k])
	}
	return r, nil
}

// parseSample splits a Prometheus text line `name{labels} value`.
func parseSample(line string) (name, labels string, val int64, ok bool) {
	if line == "" || line[0] == '#' {
		return "", "", 0, false
	}
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", "", 0, false
	}
	v, err := strconv.ParseInt(line[sp+1:], 10, 64)
	if err != nil {
		return "", "", 0, false
	}
	name = line[:sp]
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name, labels = name[:i], name[i:]
	}
	return name, labels, v, true
}

// modeLabel extracts mode="N" from a label set, or -1.
func modeLabel(labels string) int {
	_, rest, ok := strings.Cut(labels, `mode="`)
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(rest[:strings.IndexByte(rest, '"')])
	if err != nil {
		return -1
	}
	return n
}
