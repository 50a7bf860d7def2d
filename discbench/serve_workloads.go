package main

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"disc/internal/asm"
	"disc/internal/core"
	"disc/internal/rng"
	"disc/internal/serve"
	"disc/internal/snap"
)

const (
	// paperStepCycles is serve_paper4's step size: tens of milliseconds
	// of simulation per request, so HTTP and JSON are negligible.
	paperStepCycles = 400_000
	// lifecycleStepCycles is serve_lifecycle's short step.
	lifecycleStepCycles = 20_000
	// nClients is the number of closed-loop clients, one per worker.
	nClients = 2
)

// Seed-derivation keys: each generated input draws its own child seed.
const (
	seedPaperProgram = iota + 1
	seedLayers
)

// paperProgram is the workload's generated 4-stream program.
func paperProgram(seed uint64) Program {
	return Generate(paperLoads(), rng.Child(seed, seedPaperProgram))
}

// newPaperMachine builds prog on the standard board exactly as discserve
// does for a create request (4 streams, vector base 0x0200).
func newPaperMachine(prog Program, cfg core.Config) (*core.Machine, error) {
	im, err := asm.Assemble(prog.Source)
	if err != nil {
		return nil, err
	}
	cfg.Streams, cfg.VectorBase = len(prog.Loads), 0x0200
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := attachBoard(m); err != nil {
		return nil, err
	}
	for _, sec := range im.Sections {
		if err := m.LoadProgram(sec.Base, sec.Words); err != nil {
			return nil, err
		}
	}
	for s := range prog.Loads {
		if err := m.StartStream(s, streamBase(s)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// coreCounts are the deterministic counts of the workload program over
// its first paperStepCycles cycles; they move only if the modelled
// design changes.
func coreCounts(m *core.Machine) map[string]float64 {
	st := m.Stats()
	var donated uint64
	for _, d := range m.Scheduler().DonatedIssues {
		donated += d
	}
	return map[string]float64{
		"core.retired":       float64(st.Retired),
		"core.ipc":           st.Utilization(),
		"core.bus_waits":     float64(st.BusWaits),
		"core.donated_slots": float64(donated),
	}
}

// recordCoreCounts runs the program in process and records its counts,
// returning them for comparison with what the server reports.
func recordCoreCounts(res *result, prog Program) (core.Stats, error) {
	m, err := newPaperMachine(prog, core.Config{})
	if err != nil {
		return core.Stats{}, err
	}
	m.Run(paperStepCycles)
	for k, v := range coreCounts(m) {
		res.set(k, v, "count")
	}
	return m.Stats(), nil
}

// loopStats totals one closed-loop phase.
type loopStats struct {
	rounds    []int // per client
	attempted int
	failed    int
	cycles    uint64
	wall      float64 // start to the last completion, seconds
}

func (st *loopStats) add(o loopStats) {
	if st.rounds == nil {
		st.rounds = make([]int, len(o.rounds))
	}
	for i, r := range o.rounds {
		st.rounds[i] += r
	}
	st.attempted += o.attempted
	st.failed += o.failed
	st.cycles += o.cycles
	st.wall += o.wall
}

func (st loopStats) goodput() float64 { return float64(st.attempted-st.failed) / st.wall }

// closedLoop runs round on each of n clients until d has elapsed; a
// round that starts before the deadline runs to its end. round reports
// the operations it attempted and failed and the cycles it stepped.
func closedLoop(n int, d time.Duration, round func(ci, k int) (att, fail int, cycles uint64)) loopStats {
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	st := loopStats{rounds: make([]int, n)}
	var last time.Time
	var wg sync.WaitGroup
	for ci := 0; ci < n; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				att, fail, cyc := round(ci, k)
				now := time.Now()
				mu.Lock()
				st.rounds[ci]++
				st.attempted += att
				st.failed += fail
				st.cycles += cyc
				if now.After(last) {
					last = now
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	st.wall = last.Sub(start).Seconds()
	return st
}

// timedPhase runs the closed loop for d. A traced run spends the first
// half untraced and the second half recording spans, so the two
// halves give the tracing overhead; untraced, the second result is
// empty.
func timedPhase(env *runEnv, n int, d time.Duration, round func(ci, k int, spans *spanLog) (int, int, uint64)) (plain, traced loopStats) {
	if !env.trace {
		return closedLoop(n, d, func(ci, k int) (int, int, uint64) { return round(ci, k, nil) }), loopStats{}
	}
	plain = closedLoop(n, d/2, func(ci, k int) (int, int, uint64) { return round(ci, k, nil) })
	traced = closedLoop(n, d/2, func(ci, k int) (int, int, uint64) { return round(ci, k, env.spans) })
	return plain, traced
}

// mergeHalves totals the two halves of a timed phase.
func mergeHalves(plain, traced loopStats) loopStats {
	var st loopStats
	st.add(plain)
	if traced.rounds != nil {
		st.add(traced)
	}
	return st
}

// segments is how many discserve processes one serve run uses, one
// after another, each for an equal share of the timed phase. On the
// 2-vCPU host the benchmark was built on, simulation speed per CPU
// second moves by up to ±20% between processes and between stretches
// of a few seconds, while the process holds its two CPUs throughout; a
// run that samples many short processes averages that out.
const segments = 10

// serveHooks are a serve workload's steps within one segment.
type serveHooks struct {
	// prepare creates client ci's sessions and runs the untimed warm-up
	// pass; it is part of the set-up time.
	prepare func(ci int, c *client) error
	// ready runs after set-up, before timing (may be nil).
	ready func(clients []*client) error
	// round is one closed-loop round of client ci.
	round func(clients []*client, ci, k int, spans *spanLog) (att, fail int, cycles uint64)
	// after runs once the timed phase is over, before the server stops
	// (may be nil).
	after func(clients []*client, st loopStats) error
}

// runSegments drives a serve workload through its segments and records
// the end-to-end metrics: the median set-up time and peak RSS across
// segments, rate and goodput over the whole timed phase, and the
// median over every operation latency.
func runSegments(env *runEnv, res *result, h serveHooks, lat *latencies, opName string) error {
	var setups, rss []float64
	var total, plainAll, tracedAll loopStats
	share := time.Duration(env.seconds / segments * float64(time.Second))
	for range segments {
		t0 := time.Now()
		srv, clients, err := serveSetup(env, h.prepare)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, since(t0))
		err = func() error {
			defer srv.kill()
			defer closeAll(clients)
			if h.ready != nil {
				if err := h.ready(clients); err != nil {
					return err
				}
			}
			plain, traced := timedPhase(env, len(clients), share, func(ci, k int, spans *spanLog) (int, int, uint64) {
				return h.round(clients, ci, k, spans)
			})
			st := mergeHalves(plain, traced)
			if env.trace {
				plainAll.add(plain)
				tracedAll.add(traced)
			}
			total.add(st)
			mb, err := srv.peakRSSMB()
			if err != nil {
				return err
			}
			rss = append(rss, mb)
			if h.after != nil {
				if err := h.after(clients, st); err != nil {
					return err
				}
			}
			if err := recordRejected(res, clients[0]); err != nil {
				return err
			}
			closeAll(clients)
			return srv.stop()
		}()
		if err != nil {
			return err
		}
	}
	ops := lat.get(opName)
	res.Attempted, res.Failed = total.attempted, total.failed
	res.set("setup_s", median(setups), "s")
	res.set("sim_mcycles_per_s", float64(total.cycles)/total.wall/1e6, "Mcycles/s")
	res.set("goodput_ops_per_s", total.goodput(), "1/s")
	res.set("op_p50_ms", median(ops), "ms")
	res.set("max_rss_mb", median(rss), "MB")
	res.set(opName+"_p50_ms", median(ops), "ms")
	res.set(opName+"_p90_ms", quantile(ops, 0.9), "ms")
	res.set("op_samples", float64(len(ops)), "count")
	if env.trace {
		g0, g1 := plainAll.goodput(), tracedAll.goodput()
		res.set("trace.overhead_pct", 100*(g0-g1)/g0, "%")
	}
	return nil
}

// serveSetup launches discserve and runs prepare (session creation and
// the untimed warm-up pass) on each client concurrently.
func serveSetup(env *runEnv, prepare func(ci int, c *client) error) (*server, []*client, error) {
	srv, err := startServer(env)
	if err != nil {
		return nil, nil, err
	}
	clients := make([]*client, nClients)
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for i := range clients {
		clients[i] = newClient(srv.base)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = prepare(i, clients[i])
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		closeAll(clients)
		srv.kill()
		return nil, nil, err
	}
	return srv, clients, nil
}

func closeAll(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// recordRejected adds the server's 429 count to serve.rejected.
func recordRejected(res *result, c *client) error {
	ms, err := c.metrics()
	if err != nil {
		return err
	}
	res.set("serve.rejected", res.detail["serve.rejected"].Value+float64(ms.RejectedBusy), "count")
	return nil
}

// paperSession is a serve_paper4 session's final state, kept for the
// reference replay.
type paperSession struct {
	id     string
	cycles uint64
	blob   []byte
}

// runServePaper4 is the simulation hot loop as discserve users drive
// it: two sessions of the 4-stream Table 4.1 program, each stepped by
// its own closed-loop client in large, identical requests.
func runServePaper4(env *runEnv) (*result, error) {
	res := newResult()
	prog := paperProgram(env.seed)
	warm, err := recordCoreCounts(res, prog)
	if err != nil {
		return nil, err
	}
	ids := make([]string, nClients)
	before := make([]serve.SessionInfo, nClients)
	var finals []paperSession
	lat := newLatencies()
	h := serveHooks{
		prepare: func(ci int, c *client) error {
			info, err := c.create(programRequest(prog, false))
			if err != nil {
				return err
			}
			ids[ci] = info.ID
			_, err = c.step(info.ID, paperStepCycles) // the untimed warm-up pass
			return err
		},
		// After the warm-up each session has run the program for exactly
		// the cycles recordCoreCounts ran in process.
		ready: func(clients []*client) error {
			for ci, c := range clients {
				var err error
				if before[ci], err = c.inspect(ids[ci]); err != nil {
					return err
				}
				st := before[ci].Stats
				res.check(st.Retired == warm.Retired && st.BusWaits == warm.BusWaits && st.Cycles == warm.Cycles,
					"session %s after warm-up: retired %d, bus waits %d, cycles %d; in-process run: %d, %d, %d",
					ids[ci], st.Retired, st.BusWaits, st.Cycles, warm.Retired, warm.BusWaits, warm.Cycles)
			}
			return nil
		},
		round: func(clients []*client, ci, k int, spans *spanLog) (int, int, uint64) {
			sp := spans.begin(fmt.Sprintf("c%d-r%d", ci, k), "http.step", nil)
			t0 := time.Now()
			_, err := clients[ci].step(ids[ci], paperStepCycles)
			d := time.Since(t0)
			sp.end()
			if err != nil {
				res.check(false, "step: %v", err)
				return 1, 1, 0
			}
			lat.add("step", d)
			return 1, 0, paperStepCycles
		},
		after: func(clients []*client, st loopStats) error {
			s, err := finishPaperSegment(res, clients, ids, before, st)
			finals = append(finals, s...)
			return err
		},
	}
	if err := runSegments(env, res, h, lat, "step"); err != nil {
		return nil, err
	}
	if err := replayCheck(res, prog, finals); err != nil {
		return nil, err
	}
	if env.trace {
		if err := measureLayers(env, res, prog); err != nil {
			return nil, err
		}
	}
	return res, res.finishMetrics(env.trace)
}

// finishPaperSegment brings both sessions to the same cycle count
// (untimed) and checks the cycle accounting and per-stream progress;
// it returns the sessions' final snapshots.
func finishPaperSegment(res *result, clients []*client, ids []string, before []serve.SessionInfo, st loopStats) ([]paperSession, error) {
	rounds := 0
	for _, r := range st.rounds {
		rounds = max(rounds, r)
	}
	for ci, c := range clients {
		for r := st.rounds[ci]; r < rounds; r++ {
			if _, err := c.step(ids[ci], paperStepCycles); err != nil {
				return nil, err
			}
		}
	}
	total := uint64(paperStepCycles) * uint64(rounds+1) // the warm-up step, then the rounds
	var out []paperSession
	for ci, c := range clients {
		info, err := c.inspect(ids[ci])
		if err != nil {
			return nil, err
		}
		res.check(info.Cycle == total && info.SteppedCycles == total,
			"session %s: cycle %d, stepped %d, want %d", ids[ci], info.Cycle, info.SteppedCycles, total)
		var retired uint64
		for s, ps := range info.Stats.PerStream {
			retired += ps.Retired
			res.check(ps.Retired > before[ci].Stats.PerStream[s].Retired,
				"session %s stream %d made no progress in the timed phase", ids[ci], s)
		}
		res.check(retired <= info.Cycle, "session %s: %d retired in %d cycles", ids[ci], retired, info.Cycle)
		blob, err := c.snapshot(ids[ci])
		if err != nil {
			return nil, err
		}
		out = append(out, paperSession{ids[ci], total, blob})
	}
	for _, s := range out[1:] {
		res.check(bytes.Equal(s.blob, out[0].blob), "sessions %s and %s differ at equal cycles", out[0].id, s.id)
	}
	return out, nil
}

// replayCheck compares each segment's final state with a replay of the
// same program and board for the same cycles on the retained reference
// pipeline. Sessions of one segment are byte-identical (checked above),
// so one replay per segment suffices; segments replay two at a time.
func replayCheck(res *result, prog Program, finals []paperSession) error {
	var todo []paperSession
	for i, s := range finals {
		if i%nClients == 0 {
			todo = append(todo, s)
		}
	}
	errs := make([]error, len(todo))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for i, s := range todo {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, s paperSession) {
			defer wg.Done()
			defer func() { <-sem }()
			ref, err := newPaperMachine(prog, core.Config{Reference: true})
			if err != nil {
				errs[i] = err
				return
			}
			ref.Run(int(s.cycles))
			want, err := ref.Snapshot()
			if err != nil {
				errs[i] = err
				return
			}
			got, err := snap.Decode(s.blob)
			if err != nil {
				errs[i] = err
				return
			}
			want.Cfg.Reference = false // the one field that names the pipeline, not the state
			res.check(reflect.DeepEqual(got, want), "session %s after %d cycles differs from the reference-pipeline replay", s.id, s.cycles)
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// lifecycleOps is the request count of one serve_lifecycle round.
const lifecycleOps = 15

// runServeLifecycle is discserve's control plane: each client loops
// create → step → inspect → snapshot → create-from-snapshot → fork →
// three equal steps → three snapshots (compared) → three deletes.
func runServeLifecycle(env *runEnv) (*result, error) {
	res := newResult()
	prog := paperProgram(env.seed)
	if _, err := recordCoreCounts(res, prog); err != nil {
		return nil, err
	}
	lat := newLatencies()
	h := serveHooks{
		prepare: func(ci int, c *client) error {
			_, _, err := lifecycleRound(c, prog, newLatencies(), nil, nil) // the untimed warm-up pass
			return err
		},
		round: func(clients []*client, ci, k int, spans *spanLog) (int, int, uint64) {
			rs := spans.begin(fmt.Sprintf("c%d-r%d", ci, k), "lifecycle.round", nil)
			t0 := time.Now()
			cycles, done, err := lifecycleRound(clients[ci], prog, lat, spans, rs)
			rs.end()
			if err != nil {
				res.check(false, "%v", err)
				return lifecycleOps, lifecycleOps - done, cycles
			}
			lat.add("round", time.Since(t0))
			return lifecycleOps, 0, cycles
		},
	}
	if err := runSegments(env, res, h, lat, "round"); err != nil {
		return nil, err
	}
	for _, kind := range []string{"step", "create", "restore", "fork", "inspect", "snapshot", "delete"} {
		res.set(kind+"_p50_ms", median(lat.get(kind)), "ms")
	}
	res.set("step_p90_ms", quantile(lat.get("step"), 0.9), "ms")
	if env.trace {
		if err := measureLayers(env, res, prog); err != nil {
			return nil, err
		}
	}
	return res, res.finishMetrics(env.trace)
}

// lifecycleRound runs one control-plane round and reports the cycles it
// stepped and how many requests succeeded. The restored twin and the
// fork must reach snapshots byte-identical to the parent's.
func lifecycleRound(c *client, prog Program, lat *latencies, spans *spanLog, parent *openSpan) (uint64, int, error) {
	done := 0
	var cycles uint64
	trace := ""
	if parent != nil {
		trace = parent.s.Trace
	}
	timed := func(kind string, f func() error) error {
		sp := spans.begin(trace, "http."+kind, parent)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: %w", kind, err)
		}
		lat.add(kind, d)
		done++
		return nil
	}
	step := func(id string) error {
		return timed("step", func() error {
			_, err := c.step(id, lifecycleStepCycles)
			if err == nil {
				cycles += lifecycleStepCycles
			}
			return err
		})
	}
	var p, r, f serve.SessionInfo
	var blob []byte
	var err error
	if err = timed("create", func() error { p, err = c.create(programRequest(prog, true)); return err }); err != nil {
		return cycles, done, err
	}
	if err = step(p.ID); err != nil {
		return cycles, done, err
	}
	if err = timed("inspect", func() error { _, err = c.inspect(p.ID); return err }); err != nil {
		return cycles, done, err
	}
	if err = timed("snapshot", func() error { blob, err = c.snapshot(p.ID); return err }); err != nil {
		return cycles, done, err
	}
	if err = timed("restore", func() error {
		r, err = c.create(serve.CreateRequest{Snapshot: blob, Metrics: true})
		return err
	}); err != nil {
		return cycles, done, err
	}
	if err = timed("fork", func() error { f, err = c.fork(p.ID); return err }); err != nil {
		return cycles, done, err
	}
	ids := []string{p.ID, r.ID, f.ID}
	for _, id := range ids {
		if err = step(id); err != nil {
			return cycles, done, err
		}
	}
	blobs := make([][]byte, len(ids))
	for i, id := range ids {
		if err = timed("snapshot", func() error { blobs[i], err = c.snapshot(id); return err }); err != nil {
			return cycles, done, err
		}
	}
	for _, id := range ids {
		if err = timed("delete", func() error { return c.remove(id) }); err != nil {
			return cycles, done, err
		}
	}
	if !bytes.Equal(blobs[1], blobs[0]) || !bytes.Equal(blobs[2], blobs[0]) {
		return cycles, done, fmt.Errorf("twins of %s diverged: restored equal %v, fork equal %v",
			p.ID, bytes.Equal(blobs[1], blobs[0]), bytes.Equal(blobs[2], blobs[0]))
	}
	return cycles, done, nil
}
