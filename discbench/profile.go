package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// profileBuckets are the layers a CPU profile is folded into, in report
// order. Inside internal/core the ROADMAP's layer names apply, and the
// packages core calls into each join one of them; anything unmatched
// lands in "other".
var profileBuckets = []string{"issue", "execute", "sched", "bus", "step_self", "guard", "obs", "runtime", "other"}

// bucketOf names the layer a leaf function belongs to.
func bucketOf(fn string) string {
	const core = "disc/internal/core."
	switch {
	case strings.HasPrefix(fn, core):
		name := fn[len(core):]
		switch {
		case strings.Contains(name, "(*Guard)"), hasMethod(name, "irFingerprint", "wedged", "Idle", "NewGuard"):
			return "guard"
		case hasMethod(name, "issue", "decodeLive"):
			return "issue"
		case hasMethod(name, "execute", "access", "readSpecial", "writeSpecial", "readReg", "writeReg",
			"setZN", "addFlags", "subFlags", "raiseStackEvent") || strings.HasPrefix(name, "condTrue"):
			return "execute"
		case hasMethod(name, "refreshReady", "sweepStalls", "streamReady", "verifyReadyMask"):
			return "sched"
		case hasMethod(name, "completeBus", "flushYounger"):
			return "bus"
		case hasMethod(name, "Step", "Run", "stage"):
			return "step_self"
		case hasMethod(name, "emitState"):
			return "obs"
		}
		return "other"
	case hasPkg(fn, "disc/internal/mem", "disc/internal/isa"):
		return "issue" // predecoded program store and decode
	case hasPkg(fn, "disc/internal/stackwin"):
		return "execute"
	case hasPkg(fn, "disc/internal/sched", "disc/internal/interrupt"):
		return "sched"
	case hasPkg(fn, "disc/internal/bus"):
		return "bus"
	case hasPkg(fn, "disc/internal/obs"):
		return "obs"
	case hasPkg(fn, "runtime", "internal", "sync", "syscall"):
		return "runtime"
	}
	return "other"
}

// hasMethod reports whether a core symbol is one of the named
// functions or methods (closures and inlined copies included).
func hasMethod(sym string, names ...string) bool {
	if i := strings.LastIndex(sym, ")."); i >= 0 {
		sym = sym[i+2:]
	}
	for _, n := range names {
		if sym == n || strings.HasPrefix(sym, n+".") {
			return true
		}
	}
	return false
}

func hasPkg(fn string, pkgs ...string) bool {
	for _, p := range pkgs {
		if strings.HasPrefix(fn, p+".") || strings.HasPrefix(fn, p+"/") {
			return true
		}
	}
	return false
}

// foldProfile folds a CPU profile file by layer with the toolchain's
// pprof, which attributes each sample to its innermost (inlined)
// function, and returns each bucket's share of the flat time in
// percent. The flags keep every function, however small its share.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return foldTop(out)
}

// foldTop sums the flat column of `pprof -top` output by bucket. Each
// row is "flat flat% sum% cum cum% function", the function possibly
// followed by " (inline)"; header lines do not parse as rows.
func foldTop(top []byte) (map[string]float64, error) {
	totals := map[string]float64{}
	var all float64
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		flat, err := time.ParseDuration(f[0])
		if err != nil {
			continue
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		totals[bucketOf(fn)] += flat.Seconds()
		all += flat.Seconds()
	}
	if all == 0 {
		return nil, errors.New("profile holds no samples")
	}
	out := map[string]float64{}
	for _, b := range profileBuckets {
		out[b] = 100 * totals[b] / all
	}
	return out, nil
}
