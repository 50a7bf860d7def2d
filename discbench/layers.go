package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"disc/internal/asm"
	"disc/internal/baseline"
	"disc/internal/core"
	"disc/internal/rng"
	"disc/internal/serve"
	"disc/internal/snap"
	"disc/internal/stoch"
	"disc/internal/tables"
	"disc/internal/workload"
	"disc/internal/xval"
)

// perLayerNames lists the metrics of a traced run, in BENCHMARK.json
// order. Each is timed by the benchmark around calls into the layer's
// public functions; README.md maps each to the end-to-end metric it
// should move.
func perLayerNames() []string {
	var names []string
	for _, p := range workload.Base() {
		names = append(names, "core.run_ns_per_cycle."+p.Name)
	}
	names = append(names, "core.guard_ns_per_cycle")
	for _, b := range profileBuckets {
		names = append(names, "core.profile."+b+"_pct")
	}
	names = append(names, "core.retired", "core.ipc", "core.bus_waits", "core.donated_slots",
		"serve.step_inproc_ms", "serve.create_inproc_ms", "serve.restore_inproc_ms", "serve.fork_inproc_ms",
		"serve.step_http_overhead_ms", "serve.create_http_overhead_ms", "serve.rejected",
		"asm.assemble_ms", "asm.us_per_line",
		"snap.encode_ms", "snap.decode_ms", "snap.restore_ms", "snap.blob_kb",
		"obs.metrics_ns_per_cycle")
	for _, p := range workload.Base() {
		names = append(names, "stoch.ns_per_cycle."+p.Name)
	}
	return append(names, "baseline.ns_per_cycle", "tables.table42_s", "tables.table43_s",
		"parallel.speedup_par2", "trace.overhead_pct")
}

// Sizes of the per-layer measurements: enough repeats for a median,
// small enough that the whole pass takes seconds.
const (
	layerReps        = 7
	runWindow        = 250_000 // cycles per timed core window
	runWindows       = 8
	probeStepCycles  = 1_000 // a step small enough that transport dominates
	obsStepCycles    = 100_000
	profileSeconds   = 3
	stochLayerCycles = 200_000
)

// measureLayers runs the traced run's per-layer pass. Every figure is
// recorded in res and every timed call is a span.
func measureLayers(env *runEnv, res *result, prog Program) error {
	l := &layerRun{env: env, res: res, prog: prog, spans: env.spans}
	for _, step := range []func() error{
		l.coreRun, l.coreGuard, l.asmLayer, l.snapLayer, l.obsLayer,
		l.serveLayer, l.stochLayer, l.tablesLayer, l.profile,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

type layerRun struct {
	env   *runEnv
	res   *result
	prog  Program
	spans *spanLog
}

// timeSpan times f as a span of the "layers" trace.
func (l *layerRun) timeSpan(name string, f func()) time.Duration {
	sp := l.spans.begin("layers", name, nil)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.end()
	return d
}

// coreRun times Machine.Run on each Table 4.1 load at 4 streams.
func (l *layerRun) coreRun() error {
	for i, p := range workload.Base() {
		p.MeanOn, p.MeanOff = 0, 0
		m, err := xval.NewLoadMachine(p, 4, rng.Child(l.env.seed, seedLayers+uint64(i)), core.Config{})
		if err != nil {
			return err
		}
		m.Run(64)
		var per []float64
		for w := 0; w < runWindows; w++ {
			d := l.timeSpan("core.Run."+p.Name, func() { m.Run(runWindow) })
			per = append(per, float64(d.Nanoseconds())/runWindow)
		}
		l.res.set("core.run_ns_per_cycle."+p.Name, median(per), "ns")
	}
	return nil
}

// coreGuard times a Guard.StepN loop against Machine.Run on twin
// machines of the workload program, in ABBA order so drift cancels.
func (l *layerRun) coreGuard() error {
	plain, err := newPaperMachine(l.prog, core.Config{})
	if err != nil {
		return err
	}
	guarded, err := newPaperMachine(l.prog, core.Config{})
	if err != nil {
		return err
	}
	g := guarded.NewGuard(serve.DefaultStallWindow)
	runPlain := func() time.Duration { return l.timeSpan("core.Run", func() { plain.Run(runWindow) }) }
	runGuard := func() time.Duration {
		return l.timeSpan("core.Guard.StepN", func() {
			for i := 0; i < runWindow; i++ {
				if _, _, err := g.StepN(1); err != nil {
					l.res.check(false, "guard: %v", err)
					return
				}
			}
		})
	}
	// One figure per ABBA quartet; the median drops quartets that a
	// host hiccup landed in.
	var per []float64
	for w := 0; w < runWindows; w++ {
		tp := runPlain()
		tg := runGuard() + runGuard()
		tp += runPlain()
		per = append(per, float64((tg-tp).Nanoseconds())/(2*runWindow))
	}
	l.res.set("core.guard_ns_per_cycle", median(per), "ns")
	return nil
}

// asmLayer times assembling the workload program.
func (l *layerRun) asmLayer() error {
	var per []float64
	for i := 0; i < layerReps; i++ {
		var err error
		d := l.timeSpan("asm.Assemble", func() { _, err = asm.Assemble(l.prog.Source) })
		if err != nil {
			return err
		}
		per = append(per, ms(d))
	}
	lines := strings.Count(l.prog.Source, "\n")
	l.res.set("asm.assemble_ms", median(per), "ms")
	l.res.set("asm.us_per_line", median(per)*1e3/float64(lines), "us")
	return nil
}

// snapLayer times the disc-snap/1 codec and Machine.Restore on the
// workload program after its warm-up cycles.
func (l *layerRun) snapLayer() error {
	m, err := newPaperMachine(l.prog, core.Config{})
	if err != nil {
		return err
	}
	m.Run(paperStepCycles)
	var enc, dec, rest []float64
	var blob []byte
	for i := 0; i < layerReps; i++ {
		d := l.timeSpan("snap.Bytes", func() { blob, err = snap.Bytes(m) })
		if err != nil {
			return err
		}
		enc = append(enc, ms(d))
		var sn *core.Snapshot
		d = l.timeSpan("snap.Decode", func() { sn, err = snap.Decode(blob) })
		if err != nil {
			return err
		}
		dec = append(dec, ms(d))
		fresh, err := core.New(sn.Cfg)
		if err != nil {
			return err
		}
		if err := attachBoard(fresh); err != nil {
			return err
		}
		d = l.timeSpan("core.Machine.Restore", func() { err = fresh.Restore(sn) })
		if err != nil {
			return err
		}
		rest = append(rest, ms(d))
	}
	l.res.set("snap.encode_ms", median(enc), "ms")
	l.res.set("snap.decode_ms", median(dec), "ms")
	l.res.set("snap.restore_ms", median(rest), "ms")
	l.res.set("snap.blob_kb", float64(len(blob))/1024, "KB")
	return nil
}

// obsLayer steps twin in-process sessions, one created with
// metrics: true, and reports the per-cycle difference.
func (l *layerRun) obsLayer() error {
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Close()
	plain, err := srv.Create(programRequest(l.prog, false))
	if err != nil {
		return err
	}
	metered, err := srv.Create(programRequest(l.prog, true))
	if err != nil {
		return err
	}
	step := func(id, name string) (time.Duration, error) {
		var err error
		d := l.timeSpan(name, func() { _, err = srv.Step(id, obsStepCycles) })
		return d, err
	}
	var per []float64
	for w := 0; w < runWindows; w++ {
		a, err1 := step(plain.ID, "serve.Step.plain")
		b, err2 := step(metered.ID, "serve.Step.metrics")
		c, err3 := step(metered.ID, "serve.Step.metrics")
		d, err4 := step(plain.ID, "serve.Step.plain")
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			return err
		}
		per = append(per, float64((b+c-a-d).Nanoseconds())/(2*obsStepCycles))
	}
	l.res.set("obs.metrics_ns_per_cycle", median(per), "ns")
	return nil
}

// serveLayer makes the same requests to serve.Server in process and to
// a discserve process over HTTP, interleaved, and reports the in-process
// medians and the HTTP surplus.
func (l *layerRun) serveLayer() error {
	srv := serve.New(serve.Config{Workers: serveWorkers})
	defer srv.Close()
	proc, err := startServer(l.env)
	if err != nil {
		return err
	}
	defer proc.kill()
	c := newClient(proc.base)
	defer c.close()

	// The HTTP surplus is a median of paired differences, each pair
	// made back to back. The step pair uses a small step: simulation
	// speed differs between processes on this host by more than the
	// transport costs, and the transport cost does not depend on the
	// step size.
	var createIn, createDiff, stepIn, probeDiff, restoreIn, forkIn []float64
	for i := 0; i < layerReps; i++ {
		var info serve.SessionInfo
		d := l.timeSpan("serve.Create", func() { info, err = srv.Create(programRequest(l.prog, false)) })
		if err != nil {
			return err
		}
		createIn = append(createIn, ms(d))
		local := info.ID
		dh := l.timeSpan("http.create", func() { info, err = c.create(programRequest(l.prog, false)) })
		if err != nil {
			return err
		}
		createDiff = append(createDiff, ms(dh)-ms(d))
		remote := info.ID
		d = l.timeSpan("serve.Step", func() { _, err = srv.Step(local, paperStepCycles) })
		if err != nil {
			return err
		}
		stepIn = append(stepIn, ms(d))
		d = l.timeSpan("serve.Step.probe", func() { _, err = srv.Step(local, probeStepCycles) })
		if err != nil {
			return err
		}
		dh = l.timeSpan("http.step.probe", func() { _, err = c.step(remote, probeStepCycles) })
		if err != nil {
			return err
		}
		probeDiff = append(probeDiff, ms(dh)-ms(d))

		blob, err := srv.SnapshotBytes(local)
		if err != nil {
			return err
		}
		var twin serve.SessionInfo
		d = l.timeSpan("serve.Create.snapshot", func() { twin, err = srv.Create(serve.CreateRequest{Snapshot: blob}) })
		if err != nil {
			return err
		}
		restoreIn = append(restoreIn, ms(d))
		var fork serve.SessionInfo
		d = l.timeSpan("serve.Fork", func() { fork, err = srv.Fork(local) })
		if err != nil {
			return err
		}
		forkIn = append(forkIn, ms(d))
		for _, id := range []string{local, twin.ID, fork.ID} {
			if err := srv.Delete(id); err != nil {
				return err
			}
		}
		if err := c.remove(remote); err != nil {
			return err
		}
	}
	l.res.set("serve.create_inproc_ms", median(createIn), "ms")
	l.res.set("serve.step_inproc_ms", median(stepIn), "ms")
	l.res.set("serve.restore_inproc_ms", median(restoreIn), "ms")
	l.res.set("serve.fork_inproc_ms", median(forkIn), "ms")
	l.res.set("serve.create_http_overhead_ms", median(createDiff), "ms")
	l.res.set("serve.step_http_overhead_ms", median(probeDiff), "ms")
	if _, ok := l.res.detail["serve.rejected"]; !ok {
		if err := recordRejected(l.res, c); err != nil {
			return err
		}
	}
	c.close()
	return proc.stop()
}

// stochLayer times the §4.1 model at 4 streams per load, and the
// standard-processor baseline.
func (l *layerRun) stochLayer() error {
	for i, p := range workload.Base() {
		streams := make([]workload.Load, 4)
		for s := range streams {
			streams[s] = workload.Simple(p)
		}
		var per []float64
		for r := 0; r < 3; r++ {
			var err error
			cfg := stoch.Config{Cycles: stochLayerCycles, Seed: rng.Child(tablesSeed, uint64(10*i+r)), Streams: streams}
			d := l.timeSpan("stoch.Run."+p.Name, func() { _, err = stoch.Run(cfg) })
			if err != nil {
				return err
			}
			per = append(per, float64(d.Nanoseconds())/stochLayerCycles)
		}
		l.res.set("stoch.ns_per_cycle."+p.Name, median(per), "ns")
	}
	var per []float64
	for r := 0; r < 3; r++ {
		var err error
		d := l.timeSpan("baseline.Run", func() {
			_, err = baseline.Run(workload.Simple(workload.Ld1), stoch.DefaultPipeLen, stochLayerCycles, rng.Child(tablesSeed, uint64(100+r)))
		})
		if err != nil {
			return err
		}
		per = append(per, float64(d.Nanoseconds())/stochLayerCycles)
	}
	l.res.set("baseline.ns_per_cycle", median(per), "ns")
	return nil
}

// tablesLayer times Tables 4.2 and 4.3 in process, and 4.2 at Par 1
// against Par 2.
func (l *layerRun) tablesLayer() error {
	opts := tables.Opts{Seed: tablesSeed, Reps: tablesReps, Cycles: tablesCycles, Par: tablesPar}
	var err error
	t42 := l.timeSpan("tables.Table42", func() { _, err = tables.Table42(opts) })
	if err != nil {
		return err
	}
	t43 := l.timeSpan("tables.Table43", func() { _, err = tables.Table43(opts) })
	if err != nil {
		return err
	}
	opts.Par = 1
	serial := l.timeSpan("tables.Table42.par1", func() { _, err = tables.Table42(opts) })
	if err != nil {
		return err
	}
	l.res.set("tables.table42_s", t42.Seconds(), "s")
	l.res.set("tables.table43_s", t43.Seconds(), "s")
	l.res.set("parallel.speedup_par2", serial.Seconds()/t42.Seconds(), "x")
	return nil
}

// profile takes a CPU profile of the serve_paper4 hot loop in process —
// two sessions on a two-worker serve.Server, each stepped by its own
// goroutine — and folds it by layer.
func (l *layerRun) profile() error {
	srv := serve.New(serve.Config{Workers: serveWorkers})
	defer srv.Close()
	var ids []string
	for i := 0; i < nClients; i++ {
		info, err := srv.Create(programRequest(l.prog, false))
		if err != nil {
			return err
		}
		ids = append(ids, info.ID)
	}
	dir := filepath.Join(l.env.root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.pprof", l.env.workload, l.env.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	deadline := time.Now().Add(profileSeconds * time.Second)
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			for time.Now().Before(deadline) && errs[i] == nil {
				_, errs[i] = srv.Step(id, paperStepCycles)
			}
		}(i, id)
	}
	wg.Wait()
	pprof.StopCPUProfile()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	shares, err := foldProfile(path)
	if err != nil {
		return fmt.Errorf("fold profile: %w", err)
	}
	l.res.profile = shares
	for _, b := range profileBuckets {
		l.res.set("core.profile."+b+"_pct", shares[b], "%")
	}
	return nil
}
