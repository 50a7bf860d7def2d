package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadyMain runs every workload repeatedly, with seeds 1, 2, ... one
// per run, and prints for every end-to-end metric its median,
// quartiles, quartile spread as a share of the median, and max/min
// ratio — the figures BENCHMARK.json's bounds are set from. Figures BENCHMARK.json does not
// list (the detail line) are summarised the same way.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("discbench steady", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root")
	runs := fs.Int("runs", 10, "runs per workload")
	seconds := fs.Float64("seconds", 20, "timed phase of each run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "discbench steady:", err)
		return 1
	}
	status := 0
	for _, w := range workloadNames() {
		e2e := map[string][]float64{}
		detail := map[string][]float64{}
		var shares []float64
		for i := 0; i < *runs; i++ {
			seed := uint64(i + 1)
			cmdArgs := []string{"-root", *root, "-workload", w, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(*seconds, 'f', -1, 64), "-trace", "0"}
			cmd := exec.Command(self, cmdArgs...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "discbench steady: %s seed %d: %v\n", w, seed, err)
				status = 1
				continue
			}
			res, det, err := lastLines(out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "discbench steady: %s seed %d: %v\n", w, seed, err)
				status = 1
				continue
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "discbench steady: %s seed %d: outputs failed their checks\n", w, seed)
				status = 1
			}
			shares = append(shares, float64(res.Failed)/float64(res.Attempted))
			for k, m := range res.Metrics {
				e2e[k] = append(e2e[k], m.Value)
			}
			for k, m := range det {
				detail[k] = append(detail[k], m.Value)
			}
			fmt.Fprintf(os.Stderr, "discbench steady: %s seed %d done\n", w, seed)
		}
		fmt.Printf("== %s: %d runs of %gs; failed share per run %v\n", w, len(shares), *seconds, shares)
		fmt.Printf("%-34s %12s %12s %12s %8s %8s\n", "metric", "median", "q1", "q3", "iqr/med", "max/min")
		for _, k := range sortedKeys(e2e) {
			printSpread(k, e2e[k])
		}
		fmt.Println("-- per run, in seed order")
		for _, k := range sortedKeys(e2e) {
			fmt.Printf("%-34s %.4g\n", k, e2e[k])
		}
		fmt.Println("-- detail")
		for _, k := range sortedKeys(detail) {
			if _, ok := e2e[k]; !ok {
				printSpread(k, detail[k])
			}
		}
	}
	return status
}

func printSpread(name string, v []float64) {
	q := pyQuartiles(v)
	med := median(v)
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	fmt.Printf("%-34s %12.5g %12.5g %12.5g %7.2f%% %8.3f\n", name, med, q[0], q[2], 100*(q[2]-q[0])/med, hi/lo)
}

// pyQuartiles reproduces Python's statistics.quantiles(v, n=4), whose
// default method is "exclusive".
func pyQuartiles(v []float64) [3]float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	var out [3]float64
	if len(d) < 2 {
		for i := range out {
			out[i] = d[0]
		}
		return out
	}
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}

// lastLines parses a run's output: the final result line and the
// detail line before it.
func lastLines(out []byte) (*result, map[string]metric, error) {
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			lines = append(lines, t)
		}
	}
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("no result line")
	}
	res := &result{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, nil, err
	}
	var det struct {
		Detail map[string]metric `json:"detail"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &det); err != nil {
		return nil, nil, err
	}
	return res, det.Detail, nil
}
