package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostMeta is the metadata printed with every run, so a slow or
// contended host shows beside its numbers.
type hostMeta struct {
	Commit    string  `json:"commit"`
	GoVersion string  `json:"go_version"`
	NProc     int     `json:"nproc"`
	StealTick uint64  `json:"steal_ticks"`       // /proc/stat steal ticks accrued during the run
	CalBefore float64 `json:"calib_mops_before"` // calibration loop rate before the run
	CalAfter  float64 `json:"calib_mops_after"`  // and after it
	WallS     float64 `json:"wall_s"`
}

type hostProbe struct {
	meta  hostMeta
	steal uint64
	start time.Time
}

// startHost records the host state before a run.
func startHost(root string) *hostProbe {
	return &hostProbe{
		meta: hostMeta{
			Commit:    commitOf(root),
			GoVersion: runtime.Version(),
			NProc:     runtime.NumCPU(),
			CalBefore: calibrate(),
		},
		steal: stealTicks(),
		start: time.Now(),
	}
}

// finish completes the metadata after the run.
func (h *hostProbe) finish() hostMeta {
	h.meta.WallS = since(h.start)
	if s := stealTicks(); s >= h.steal {
		h.meta.StealTick = s - h.steal
	}
	h.meta.CalAfter = calibrate()
	return h.meta
}

// calibrate times a fixed, program-independent integer loop and
// returns its rate in millions of iterations per second.
func calibrate() float64 {
	const n = 20_000_000
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(start)
	calSink = x
	return n / d.Seconds() / 1e6
}

var calSink uint64

// stealTicks reads the machine-wide steal counter (the eighth value of
// the cpu line of /proc/stat); 0 where it is unavailable.
func stealTicks() uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			v, _ := strconv.ParseUint(fields[8], 10, 64)
			return v
		}
	}
	return 0
}

// commitOf names the checkout's commit when it is a git work tree, and
// "unknown" otherwise (an exported tree carries no history).
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
