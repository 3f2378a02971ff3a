package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"spblock"
	"spblock/internal/gen"
	"spblock/internal/ooc"
)

// noTol disables the ALS convergence test (a non-positive Tol means
// the default 1e-5), so every decomposition runs its full sweep count.
const noTol = math.SmallestNonzeroFloat64

// checkRel is the relative tolerance of the fit checks against a
// reference decomposition that uses a different kernel.
const checkRel = 1e-9

// workload is one set of inputs and the operations run on them.
type workload struct {
	name string
	// why the workload exists: which layer does most of its work.
	why      string
	params   func(p params) any
	generate func(dir string, seed int64, p params) (inputs, error)
	run      func(spec childSpec, p params) (childResult, error)
}

var workloads = []workload{
	{
		name: "nell2-mem",
		why: "NELL2 stand-in CP-ALS in memory at R=64: factors exceed L2, MTTKRP is most of a sweep, " +
			"so kernel, engine and sched changes show here",
		params:   func(p params) any { return p.Nell2 },
		generate: generateNell2,
		run:      runNell2,
	},
	{
		name: "ooc-order4",
		why: "order-4 CP-ALS streamed through ooc.Engine at a 25% budget: bypasses the order-3 core stack " +
			"and exercises the nmode walker and the prefetch pipeline",
		params:   func(p params) any { return p.OOC },
		generate: generateOOC,
		run:      runOOC,
	},
	{
		name: "spblockd-mix",
		why: "closed-loop spblockd clients over loopback on small tensors with evictions: HTTP, parse, " +
			"fingerprint, cache and executor rebuilds dominate, kernel work per job is small",
		params:   func(p params) any { return p.Svc },
		generate: generateService,
		run:      runService,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// nell2Params configures nell2-mem.
type nell2Params struct {
	Dims          [3]int `json:"dims"`
	NNZ           int    `json:"nnz"`
	Rank          int    `json:"rank"`
	SweepsPerRun  int    `json:"sweeps_per_run"`
	Grid          []int  `json:"grid"`
	RankBlockCols int    `json:"rank_block_cols"`
	Workers       int    `json:"workers"`
	Setups        int    `json:"setups"`
	CheckFits     int    `json:"check_fits"`
}

// oocParams configures ooc-order4.
type oocParams struct {
	Dims         []int   `json:"dims"`
	NNZ          int     `json:"nnz_target"`
	Clusters     int     `json:"clusters"`
	ClusterSide  float64 `json:"cluster_side"`
	ZipfS        float64 `json:"zipf_s"`
	Grid         []int   `json:"grid"`
	Rank         int     `json:"rank"`
	SweepsPerRun int     `json:"sweeps_per_run"`
	BudgetFrac   float64 `json:"budget_frac"`
	Decoders     int     `json:"decoders"`
	Setups       int     `json:"setups"`
	CheckFits    int     `json:"check_fits"`
}

// svcParams configures spblockd-mix.
type svcParams struct {
	Tensors       int     `json:"tensors"`
	Dims          [3]int  `json:"dims"`
	NNZ           int     `json:"nnz"`
	ZipfS         float64 `json:"zipf_s"`
	Clients       int     `json:"clients"`
	MaxConcurrent int     `json:"max_concurrent"`
	Workers       int     `json:"workers"`
	CacheBytes    int64   `json:"cache_bytes"`
	CPALSPerMTT   int     `json:"cpals_per_mttkrp"`
	Rank          int     `json:"rank"`
	CPALSSweeps   int     `json:"cpals_sweeps"`
	MTTKRPReps    int     `json:"mttkrp_reps"`
	JobSeeds      int     `json:"job_seeds"`
	Setups        int     `json:"setups"`
}

type params struct {
	Nell2 nell2Params
	OOC   oocParams
	Svc   svcParams
}

// scaleParams returns the workload parameters: "full" is the
// benchmark, "tiny" the self-test's scale.
func scaleParams(scale string) (params, error) {
	nell2, err := spblock.LookupDataset("NELL2")
	if err != nil {
		return params{}, err
	}
	full := params{
		Nell2: nell2Params{
			Dims: [3]int(nell2.BenchDims), NNZ: nell2.BenchNNZ,
			Rank: 64, SweepsPerRun: 10,
			Grid: []int{2, 2, 2}, RankBlockCols: 16, Workers: 2,
			Setups: 5, CheckFits: 3,
		},
		OOC: oocParams{
			// Many small dense clusters over a mild background keep the
			// 16 staged blocks near equal size on every seed. The
			// largest block sizes every prefetch slot: with 48 clusters
			// over the default Zipf(1.1) background it, and with it the
			// working set and mem_peak_mb, varied by 16% (CV) across
			// seeds; with these settings by 4%.
			Dims: []int{1000, 800, 600, 200}, NNZ: 600_000,
			Clusters: 1000, ClusterSide: 0.01, ZipfS: 0.6,
			Grid: []int{2, 2, 2, 2}, Rank: 32, SweepsPerRun: 10,
			BudgetFrac: 0.25, Decoders: 1,
			Setups: 5, CheckFits: 3,
		},
		Svc: svcParams{
			Tensors: 8, Dims: [3]int{375, 281, 906}, NNZ: 40_000, ZipfS: 1.2,
			Clients: 2, MaxConcurrent: 2, Workers: 1,
			CacheBytes:  svcCacheBytes,
			CPALSPerMTT: 3, Rank: 16, CPALSSweeps: 8, MTTKRPReps: 3, JobSeeds: 2,
			Setups: 5,
		},
	}
	switch scale {
	case "full":
		return full, nil
	case "tiny":
		t := full
		t.Nell2.Dims, t.Nell2.NNZ, t.Nell2.Rank, t.Nell2.SweepsPerRun = [3]int{60, 45, 145}, 4000, 16, 4
		t.OOC.Dims, t.OOC.NNZ, t.OOC.Rank, t.OOC.SweepsPerRun = []int{40, 32, 24, 8}, 3000, 8, 4
		t.Svc.Tensors, t.Svc.Dims, t.Svc.NNZ = 4, [3]int{30, 28, 90}, 1500
		t.Svc.CacheBytes = 320_000 // about three of the four ~100 kB built stacks
		t.Nell2.Setups, t.OOC.Setups, t.Svc.Setups = 2, 2, 2
		return t, nil
	}
	return params{}, fmt.Errorf("unknown scale %q (want full or tiny)", scale)
}

// inputID identifies one generated input, so that two runs can show
// they measured the same data.
type inputID struct {
	Name string `json:"name"`
	Path string `json:"path"`
	Dims []int  `json:"dims"`
	NNZ  int    `json:"nnz"`
	// Fingerprint is spblock.Fingerprint for order-3 inputs and the
	// sha256 of the staged manifest for the order-4 input.
	Fingerprint string `json:"fingerprint"`
	FileSHA256  string `json:"file_sha256"`
	Bytes       int64  `json:"bytes"`
}

// inputs is what the generator hands the measured child.
type inputs struct {
	IDs []inputID `json:"ids"`
	// RefFits are the reference decomposition's first fits.
	RefFits []float64 `json:"ref_fits,omitempty"`
}

// childSpec is the measured child's job description.
type childSpec struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	TracePath string  `json:"trace_path,omitempty"`
	Scale     string  `json:"scale"`
	Dir       string  `json:"dir"`
	Inputs    inputs  `json:"inputs"`
}

// childResult is what one measured child reports. Attempted counts the
// set-ups and ops it ran, Failed those whose output check failed.
type childResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Info      map[string]any     `json:"info,omitempty"`
}

func runWorkload(spec childSpec) (childResult, error) {
	w, err := lookupWorkload(spec.Workload)
	if err != nil {
		return childResult{}, err
	}
	p, err := scaleParams(spec.Scale)
	if err != nil {
		return childResult{}, err
	}
	return w.run(spec, p)
}

func generateNell2(dir string, seed int64, p params) (inputs, error) {
	q := p.Nell2
	spec, err := spblock.LookupDataset("NELL2")
	if err != nil {
		return inputs{}, err
	}
	t, err := spec.GenerateAt(spblock.Dims(q.Dims), q.NNZ, seed)
	if err != nil {
		return inputs{}, err
	}
	id, err := saveCOO(filepath.Join(dir, "nell2.tns"), "nell2", t)
	if err != nil {
		return inputs{}, err
	}
	tn, err := spblock.LoadTNSN(id.Path)
	if err != nil {
		return inputs{}, err
	}
	ref, err := spblock.CPALSN(tn, spblock.CPNOptions{
		Rank: q.Rank, MaxIters: q.CheckFits, Tol: noTol, Seed: seed,
		Kernel: spblock.OptionsN{Workers: 1},
	})
	if err != nil {
		return inputs{}, fmt.Errorf("reference CP-ALS: %w", err)
	}
	return inputs{IDs: []inputID{id}, RefFits: ref.Fits}, nil
}

func generateOOC(dir string, seed int64, p params) (inputs, error) {
	q := p.OOC
	t, err := gen.ClusteredN(gen.ClusteredNParams{Dims: q.Dims, NNZ: q.NNZ, Clusters: q.Clusters, ClusterSide: q.ClusterSide, ZipfS: q.ZipfS}, seed)
	if err != nil {
		return inputs{}, err
	}
	path := filepath.Join(dir, "order4.tns")
	if err := spblock.SaveTNSN(path, t); err != nil {
		return inputs{}, err
	}
	id, err := fileID("order4", path, t.Dims, t.NNZ())
	if err != nil {
		return inputs{}, err
	}
	stageDir := filepath.Join(dir, "stage-identity")
	man, err := ooc.Stage(path, stageDir, ooc.StageOptions{Grid: q.Grid})
	if err != nil {
		return inputs{}, err
	}
	if id.Fingerprint, err = manifestHash(man); err != nil {
		return inputs{}, err
	}
	if err := os.RemoveAll(stageDir); err != nil {
		return inputs{}, err
	}
	tn, err := spblock.LoadTNSN(path)
	if err != nil {
		return inputs{}, err
	}
	ref, err := spblock.CPALSN(tn, spblock.CPNOptions{
		Rank: q.Rank, MaxIters: q.CheckFits, Tol: noTol, Seed: seed,
		Kernel: spblock.OptionsN{Grid: q.Grid, Workers: 1},
	})
	if err != nil {
		return inputs{}, fmt.Errorf("reference CP-ALS: %w", err)
	}
	return inputs{IDs: []inputID{id}, RefFits: ref.Fits}, nil
}

func generateService(dir string, seed int64, p params) (inputs, error) {
	q := p.Svc
	spec, err := spblock.LookupDataset("NELL2")
	if err != nil {
		return inputs{}, err
	}
	var in inputs
	for i := 0; i < q.Tensors; i++ {
		t, err := spec.GenerateAt(spblock.Dims(q.Dims), q.NNZ, gen.SubSeed(seed, 100+i))
		if err != nil {
			return inputs{}, err
		}
		name := fmt.Sprintf("svc%d", i)
		id, err := saveCOO(filepath.Join(dir, name+".tns"), name, t)
		if err != nil {
			return inputs{}, err
		}
		in.IDs = append(in.IDs, id)
	}
	return in, nil
}

func saveCOO(path, name string, t *spblock.Tensor) (inputID, error) {
	if err := spblock.SaveTNS(path, t); err != nil {
		return inputID{}, err
	}
	id, err := fileID(name, path, t.Dims[:], t.NNZ())
	if err != nil {
		return inputID{}, err
	}
	id.Fingerprint = spblock.Fingerprint(t)
	return id, nil
}

func fileID(name, path string, dims []int, nnz int) (inputID, error) {
	f, err := os.Open(path)
	if err != nil {
		return inputID{}, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return inputID{}, err
	}
	return inputID{Name: name, Path: path, Dims: append([]int(nil), dims...), NNZ: nnz,
		FileSHA256: hex.EncodeToString(h.Sum(nil)), Bytes: n}, nil
}

// manifestHash identifies a staged layout: dims, grid, nnz, the norm's
// bits and every block's id, size and offset.
func manifestHash(m *ooc.Manifest) (string, error) {
	js, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(js)
	return hex.EncodeToString(h[:]), nil
}

// sortedKeys returns m's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
