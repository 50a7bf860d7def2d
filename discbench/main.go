// Command discbench is the DISC repository's end-to-end benchmark. It
// drives the programs users run — cmd/discserve over loopback HTTP and
// cmd/experiments regenerating the paper's tables — from one
// load-generating process, checks their outputs, and prints each
// workload's metrics. A traced run (-trace 1) adds per-layer figures
// timed around calls into the simulator's packages.
//
// Run it from the repository root through run.sh, which builds the
// harness and both programs from the tree first:
//
//	bash discbench/run.sh --workload serve_paper4 --seed 1 --seconds 20 --trace 0
//	bash discbench/run.sh --workload all --seed 1 --seconds 20
//	bash discbench/run.sh steady --runs 10 --seconds 20
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it carry host
// metadata and each workload's detail figures. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// workloads maps each workload name to its runner, in report order.
var workloads = []struct {
	name string
	run  func(env *runEnv) (*result, error)
}{
	{"serve_paper4", runServePaper4},
	{"serve_lifecycle", runServeLifecycle},
	{"tables_sweep", runTablesSweep},
}

// runEnv is what every workload runner gets.
type runEnv struct {
	workload string
	root     string // repository root (the checkout)
	bin      string // directory holding the built discserve and experiments
	seed     uint64
	seconds  float64
	trace    bool
	spans    *spanLog // nil unless tracing
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run's outcome.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Not part of the final line: printed before it.
	detail  map[string]metric // every figure, including the ones BENCHMARK.json does not list
	profile map[string]float64

	mu     sync.Mutex
	checks []string // failed correctness checks
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}, detail: map[string]metric{}}
}

// set records a figure in the detail map.
func (r *result) set(name string, v float64, unit string) { r.detail[name] = metric{v, unit} }

// check records a correctness verdict.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.mu.Lock()
		r.Correct = false
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
		r.mu.Unlock()
	}
}

// endToEnd names the metrics of an untraced run, in BENCHMARK.json
// order; every workload reports each of them.
var endToEnd = []string{"setup_s", "sim_mcycles_per_s", "goodput_ops_per_s", "op_p50_ms", "max_rss_mb"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("discbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root holding cmd/discserve and cmd/experiments")
	wl := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Child processes run in the root, so a relative path would move.
	rootDir, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "discbench:", err)
		return 2
	}
	bin := filepath.Join(rootDir, ".bench_build", "bin") // where run.sh builds
	var names []string
	switch {
	case *wl == "all":
		names = workloadNames()
	case indexOf(workloadNames(), *wl) >= 0:
		names = []string{*wl}
	default:
		fmt.Fprintf(os.Stderr, "discbench: unknown -workload %q (want one of %s, or all)\n", *wl, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "discbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	for _, p := range []string{"discserve", "experiments"} {
		if _, err := os.Stat(filepath.Join(bin, p)); err != nil {
			fmt.Fprintf(os.Stderr, "discbench: %s not built: %v\n", p, err)
			return 2
		}
	}

	for _, name := range names {
		env := &runEnv{workload: name, root: rootDir, bin: bin, seed: *seed, seconds: *seconds, trace: *trace == 1}
		if env.trace {
			env.spans = newSpanLog()
		}
		host := startHost(rootDir)
		res, err := runWorkload(name, env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "discbench: %s: %v\n", name, err)
			return 1
		}
		hm := host.finish()
		res.set("host.calib_mops_before", hm.CalBefore, "Mops/s")
		res.set("host.calib_mops_after", hm.CalAfter, "Mops/s")
		res.set("host.steal_ticks", float64(hm.StealTick), "count")
		res.set("host.wall_s", hm.WallS, "s")
		if env.trace {
			if err := writeTrace(env, name, res, hm); err != nil {
				fmt.Fprintf(os.Stderr, "discbench: %s: writing trace: %v\n", name, err)
				return 1
			}
		}
		for _, c := range res.checks {
			fmt.Fprintf(os.Stderr, "discbench: %s: CHECK FAILED: %s\n", name, c)
		}
		for _, v := range []any{
			map[string]any{"host": hm},
			map[string]any{"workload": name, "seed": *seed, "trace": *trace, "detail": res.detail},
			res,
		} {
			b, err := json.Marshal(v)
			if err != nil { // a NaN or infinite figure: something measured nothing
				fmt.Fprintf(os.Stderr, "discbench: %s: %v\n", name, err)
				return 1
			}
			fmt.Println(string(b))
		}
	}
	return 0
}

func runWorkload(name string, env *runEnv) (*result, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.run(env)
		}
	}
	return nil, fmt.Errorf("no workload %q", name)
}

// finishMetrics copies the reported metrics out of the detail map: the
// end-to-end set, or for a traced run the per-layer set.
func (r *result) finishMetrics(trace bool) error {
	names := endToEnd
	if trace {
		names = perLayerNames()
	}
	for _, n := range names {
		m, ok := r.detail[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		r.Metrics[n] = m
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func indexOf(list []string, s string) int {
	for i, v := range list {
		if v == s {
			return i
		}
	}
	return -1
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// since reports the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
