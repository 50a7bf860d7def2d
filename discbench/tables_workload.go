package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"disc/internal/stoch"
	"disc/internal/tables"
	"disc/internal/workload"
)

// tables_sweep regenerates Tables 4.2 and 4.3 the way cmd/experiments
// users do, with the command's defaults for seed and effort. The seed
// stays fixed rather than following -seed: the closed-form check below
// compares against a 95% confidence interval, which by construction
// misses the true value on about one seed in twenty.
const (
	tablesSeed   = 1991
	tablesReps   = 5
	tablesCycles = stoch.DefaultCycles
	tablesPar    = 2
)

// tablesModelCycles is the stochastic-model (and baseline-model) cycles
// one 4.2 + 4.3 regeneration simulates: every cell of both tables,
// baseline column included, is tablesReps runs of tablesCycles.
func tablesModelCycles() float64 {
	cells := (len(workload.Base()) + len(workload.Combined())) * (tables.MaxStreams + 1)
	return float64(cells * tablesReps * tablesCycles)
}

// regeneration is one `experiments -only 4.2` + `-only 4.3` pair.
type regeneration struct {
	out   []byte
	dur   time.Duration
	rssMB float64 // the larger peak RSS of the two processes
}

func regenerate(env *runEnv, par int, spans *spanLog, trace string) (regeneration, error) {
	var g regeneration
	var out bytes.Buffer
	start := time.Now()
	for _, table := range []string{"4.2", "4.3"} {
		sp := spans.begin(trace, "experiments."+table, nil)
		cmd := exec.Command(filepath.Join(env.bin, "experiments"), "-only", table,
			"-par", strconv.Itoa(par), "-seed", strconv.Itoa(tablesSeed),
			"-reps", strconv.Itoa(tablesReps), "-cycles", strconv.Itoa(tablesCycles))
		cmd.Dir = env.root
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		err := cmd.Run()
		sp.end()
		if err != nil {
			return g, fmt.Errorf("experiments -only %s: %w", table, err)
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			g.rssMB = math.Max(g.rssMB, float64(ru.Maxrss)/1024)
		}
	}
	g.dur = time.Since(start)
	g.out = out.Bytes()
	return g, nil
}

// setupReps is how many regenerations a tables run sets up with;
// setup_s is their median.
const setupReps = 3

// runTablesSweep is paper-table regeneration: one closed-loop client
// regenerating Tables 4.2 and 4.3 at -par 2 with a fixed seed and reps.
func runTablesSweep(env *runEnv) (*result, error) {
	res := newResult()
	prog := paperProgram(env.seed)
	if _, err := recordCoreCounts(res, prog); err != nil {
		return nil, err
	}

	var setups []float64
	var first regeneration
	for i := 0; i < setupReps; i++ {
		g, err := regenerate(env, tablesPar, nil, "")
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = g
		} else {
			res.check(bytes.Equal(g.out, first.out), "setup regeneration %d differs from the first", i)
		}
		setups = append(setups, g.dur.Seconds())
	}
	res.set("setup_s", median(setups), "s")
	checkTables(res, first.out)

	lat := newLatencies()
	var rss []float64
	plain, traced := timedPhase(env, 1, time.Duration(env.seconds*float64(time.Second)), func(_, k int, spans *spanLog) (int, int, uint64) {
		g, err := regenerate(env, tablesPar, spans, fmt.Sprintf("r%d", k))
		if err != nil {
			res.check(false, "%v", err)
			return 1, 1, 0
		}
		res.check(bytes.Equal(g.out, first.out), "timed regeneration %d differs from the first", k)
		lat.add("table", g.dur)
		rss = append(rss, g.rssMB)
		return 1, 0, uint64(tablesModelCycles())
	})
	st := mergeHalves(plain, traced)
	if env.trace {
		res.set("trace.overhead_pct", 100*(plain.goodput()-traced.goodput())/plain.goodput(), "%")
	}
	ops := lat.get("table")
	res.Attempted, res.Failed = st.attempted, st.failed
	res.set("sim_mcycles_per_s", float64(st.cycles)/st.wall/1e6, "Mcycles/s")
	res.set("goodput_ops_per_s", st.goodput(), "1/s")
	res.set("op_p50_ms", median(ops), "ms")
	res.set("max_rss_mb", median(rss), "MB")
	res.set("table_p50_s", median(ops)/1e3, "s")
	res.set("table_p90_s", quantile(ops, 0.9)/1e3, "s")
	res.set("op_samples", float64(len(ops)), "count")

	// The sweep engine's determinism contract: -par 1 prints the same
	// bytes as -par 2.
	serial, err := regenerate(env, 1, nil, "")
	if err != nil {
		return nil, err
	}
	res.check(bytes.Equal(serial.out, first.out), "-par 1 tables differ from -par 2")
	res.set("table_par1_s", serial.dur.Seconds(), "s")

	if env.trace {
		if err := measureLayers(env, res, prog); err != nil {
			return nil, err
		}
	}
	return res, res.finishMetrics(env.trace)
}

// cell is one "mean ±ci" table entry.
type cell struct{ mean, ci float64 }

// parseTable extracts the rows of the table whose title starts with
// title from experiments output: row label -> cells, percentages as
// plain numbers.
func parseTable(out []byte, title string) map[string][]cell {
	rows := map[string][]cell{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	in := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, title):
			in = true
			continue
		case !in:
			continue
		case strings.TrimSpace(line) == "":
			return rows
		}
		f := strings.Fields(line)
		if len(f) < 3 || !strings.HasPrefix(f[2], "±") {
			continue // the header and rule lines
		}
		var cells []cell
		for i := 1; i+1 < len(f); i += 2 {
			m, err1 := strconv.ParseFloat(strings.TrimSuffix(f[i], "%"), 64)
			c, err2 := strconv.ParseFloat(strings.TrimPrefix(f[i+1], "±"), 64)
			if err1 != nil || err2 != nil {
				cells = nil
				break
			}
			cells = append(cells, cell{m, c})
		}
		if cells != nil {
			rows[f[0]] = cells
		}
	}
	return rows
}

// checkTables holds the regenerated tables to properties that follow
// from the model, not from a recorded output:
//   - load 3 never touches the bus, so its standard-processor Ps and its
//     1-IS PD are both the closed form 1/(1 + aljmp·(pipe−1));
//   - PD rises with the degree of partitioning on every load.
func checkTables(res *result, out []byte) {
	pd := parseTable(out, "Table 4.2a")
	delta := parseTable(out, "Table 4.2b")
	res.check(len(pd) == len(workload.Base()) && len(delta) == len(workload.Base()),
		"Table 4.2 has %d PD rows and %d delta rows, want %d", len(pd), len(delta), len(workload.Base()))
	for _, p := range workload.Base() {
		row := pd[p.Name]
		res.check(len(row) == tables.MaxStreams, "Table 4.2a %s: %d cells", p.Name, len(row))
		for k := 1; k < len(row); k++ {
			res.check(row[k].mean > row[k-1].mean, "Table 4.2a %s: PD %.3f at %d ISs does not rise from %.3f at %d",
				p.Name, row[k].mean, k+1, row[k-1].mean, k)
		}
	}
	const rounding = 0.0005 // half a unit of the printed third decimal
	closed := 1 / (1 + workload.Ld3.AlJmp*float64(stoch.DefaultPipeLen-1))
	row, drow := pd[workload.Ld3.Name], delta[workload.Ld3.Name]
	if len(row) == 0 || len(drow) == 0 {
		res.check(false, "Table 4.2 has no %s row", workload.Ld3.Name)
		return
	}
	pd1 := row[0]
	res.check(math.Abs(pd1.mean-closed) <= pd1.ci+rounding,
		"load3 1-IS PD %.3f ±%.3f, closed form %.4f", pd1.mean, pd1.ci, closed)
	// Ps = PD / (1 + delta); its uncertainty is the PD's plus the
	// printed delta's CI (both rounded).
	d := drow[0]
	ps := pd1.mean / (1 + d.mean/100)
	tol := pd1.ci + rounding + ps*(d.ci+0.05)/100
	res.check(math.Abs(ps-closed) <= tol, "load3 Ps %.4f (from PD and delta), closed form %.4f, tolerance %.4f", ps, closed, tol)
	res.set("check.load3_ps", ps, "ratio")
	res.set("check.load3_pd1", pd1.mean, "ratio")
}
