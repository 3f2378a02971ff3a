package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's measured
// child, which the orchestrator starts by re-executing itself.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout))
	}
	os.Exit(m.Run())
}

// tracedLayers are the layers whose spans each workload's traced run
// must produce.
var tracedLayers = map[string][]string{
	"nell2-mem":    {"nmode", "engine", "als", "mttkrp"},
	"ooc-order4":   {"nmode", "ooc", "als", "mttkrp"},
	"spblockd-mix": {"nmode", "engine", "server", "client"},
}

// TestSmoke runs every workload once untraced and once traced at tiny
// scale and checks the result line: every named metric present, finite
// and with its unit, no failed ops, and spans for every layer.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace%d", w, trace), func(t *testing.T) {
				dir := t.TempDir()
				var out bytes.Buffer
				err := run([]string{"--workload", w, "--seed", "3", "--seconds", "0.5",
					"--trace", fmt.Sprint(trace), "--scale", "tiny", "--workdir", dir}, &out)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace == 1 {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					v, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %s = %v", d.Name, v.Value)
					case v.Unit != d.Unit:
						t.Errorf("metric %s unit %q, want %q", d.Name, v.Unit, d.Unit)
					}
				}
				if trace == 0 {
					for _, d := range endToEnd {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
					return
				}
				js, err := os.ReadFile(filepath.Join(dir, "traces", w+"-seed3.json"))
				if err != nil {
					t.Fatal(err)
				}
				var spans []span
				if err := json.Unmarshal(js, &spans); err != nil {
					t.Fatal(err)
				}
				seen := map[string]bool{}
				for _, s := range spans {
					seen[s.layer()] = true
				}
				for _, l := range tracedLayers[w] {
					if !seen[l] {
						t.Errorf("no %s spans", l)
					}
				}
			})
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "als.sweep", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "mttkrp.mode0", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "mttkrp.mode1", Start: 30, End: 50},
		{ID: 4, Parent: 1, Op: 1, Name: "mttkrp.mode2", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	if self["als"] != 100-40-10 {
		t.Errorf("als self time %v, want 50", self["als"])
	}
	sh := opShares(spans, "als.sweep")
	if sh["als"] != 0.5 {
		t.Errorf("als share %v, want 0.5", sh["als"])
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median %v", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile %v", got)
	}
}
