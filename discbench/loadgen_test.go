package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"disc/internal/analysis"
	"disc/internal/asm"
	"disc/internal/core"
)

var testSeeds = []uint64{1, 2, 3, 17, 1991}

// The generated programs assemble and pass the static analyzer with no
// warning or error against the board's device map: every external
// access lands on a mapped device. The one expected finding is the
// livelock pass's warning on a stream whose load makes no external
// requests (load 3): an always-active loop with no bus access is what
// that load is.
func TestProgramsAssembleAndLintClean(t *testing.T) {
	for _, seed := range testSeeds {
		prog := paperProgram(seed)
		im, err := asm.Assemble(prog.Source)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var entries []uint16
		for s := range prog.Loads {
			entries = append(entries, streamBase(s))
			if at, ok := im.Symbol(prog.Start[strconv.Itoa(s)]); !ok || at != streamBase(s) {
				t.Fatalf("seed %d: start label of stream %d at %#x, want %#x", seed, s, at, streamBase(s))
			}
		}
		rep := analysis.Analyze(im, analysis.Options{
			Entries:    entries,
			VectorBase: 0x0200,
			Streams:    len(prog.Loads),
			BusRanges:  boardRanges(),
		})
		for _, f := range rep.Findings {
			if f.Severity < analysis.Warning {
				continue
			}
			if s := streamAt(f.Addr); f.Pass == analysis.PassLivelock && f.Severity == analysis.Warning && s >= 0 && prog.Loads[s].MeanReq <= 0 {
				continue
			}
			t.Errorf("seed %d: %s", seed, f)
		}
	}
}

// streamAt names the stream whose code holds addr, or -1.
func streamAt(addr uint16) int {
	for s := 0; s < 4; s++ {
		if addr >= streamBase(s) && addr < streamBase(s)+0x1000 {
			return s
		}
	}
	return -1
}

// streamStats is one stream's static instruction mix.
type streamStats struct {
	positions, requests, mem, jumps int
}

var (
	streamHeader = regexp.MustCompile(`^; stream (\d+): `)
	loopLabel    = regexp.MustCompile(`^s\d+_loop:$`)
)

// mix counts each stream's loop body: requests (LD), the memory share
// of them ([R7+..] is external RAM, [R4+..] an I/O device), jumps and
// plain instructions.
func mix(t *testing.T, src string) []streamStats {
	t.Helper()
	var out []streamStats
	inBody := false
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case streamHeader.MatchString(line):
			out = append(out, streamStats{})
			inBody = false
			continue
		case loopLabel.MatchString(line):
			inBody = true
			continue
		case !inBody || line == "" || strings.HasSuffix(line, ":"):
			continue
		}
		s := &out[len(out)-1]
		switch f := strings.Fields(line); {
		case f[0] == "LD":
			s.positions++
			s.requests++
			if strings.Contains(line, "[R7+") {
				s.mem++
			}
		case f[0] == "JMP" && strings.Contains(f[1], "_j"):
			s.positions++
			s.jumps++
		case f[0] == "ADDI":
			s.positions++
		case f[0] == "JMP": // the loop's back edge, outside the body
			inBody = false
		default:
			t.Fatalf("unexpected body line %q", line)
		}
	}
	return out
}

// Each stream's static mix matches its Table 4.1 load: the jump
// fraction among non-request instructions (aljmp), the mean distance
// between external requests (mean_req) and the memory share of the
// requests (alpha). The tolerance is four standard errors of each
// estimate at the generated sample size.
func TestMixMatchesTable41(t *testing.T) {
	for _, seed := range testSeeds {
		prog := paperProgram(seed)
		streams := mix(t, prog.Source)
		if len(streams) != len(prog.Loads) {
			t.Fatalf("seed %d: %d streams in the source, want %d", seed, len(streams), len(prog.Loads))
		}
		for i, p := range prog.Loads {
			s := streams[i]
			if s.positions != bodyLen {
				t.Errorf("seed %d %s: %d body instructions, want %d", seed, p.Name, s.positions, bodyLen)
			}
			plain := float64(s.positions - s.requests)
			jf := float64(s.jumps) / plain
			if tol := 4 * math.Sqrt(p.AlJmp*(1-p.AlJmp)/plain); math.Abs(jf-p.AlJmp) > tol {
				t.Errorf("seed %d %s: jump fraction %.4f, aljmp %.2f ± %.4f", seed, p.Name, jf, p.AlJmp, tol)
			}
			if p.MeanReq <= 0 {
				if s.requests != 0 {
					t.Errorf("seed %d %s: %d requests from a load without external traffic", seed, p.Name, s.requests)
				}
				continue
			}
			n := float64(s.requests)
			spacing := float64(s.positions) / n
			if tol := 4 * math.Sqrt(p.MeanReq/n); math.Abs(spacing-p.MeanReq) > tol {
				t.Errorf("seed %d %s: request spacing %.2f, mean_req %.0f ± %.2f", seed, p.Name, spacing, p.MeanReq, tol)
			}
			share := float64(s.mem) / n
			if tol := 4 * math.Sqrt(p.Alpha*(1-p.Alpha)/n); math.Abs(share-p.Alpha) > tol {
				t.Errorf("seed %d %s: memory share %.3f, alpha %.2f ± %.3f", seed, p.Name, share, p.Alpha, tol)
			}
		}
	}
}

// I/O latencies map to the board device with the nearest wait states,
// the earlier-attached device on a tie; Table 4.1's 20- and 30-cycle means land on the slowest, uart0.
func TestNearestIO(t *testing.T) {
	want := map[int]string{1: "gpio0", 2: "timer0", 3: "step0", 4: "adc0", 5: "uart0", 6: "uart0", 20: "uart0", 30: "uart0"}
	for lat, name := range want {
		if got := boardIO[nearestIO(lat)].name; got != name {
			t.Errorf("latency %d maps to %s, want %s", lat, got, name)
		}
	}
	for _, d := range boardIO {
		if last := d.off + d.size - 1; last > 127 {
			t.Errorf("%s: offset %#x from IOBase does not fit LD's signed 8-bit offset", d.name, last)
		}
	}
}

// The program is a pure function of its seed.
func TestGenerateDeterministic(t *testing.T) {
	a, b := paperProgram(7), paperProgram(7)
	if a.Source != b.Source {
		t.Fatal("same seed, different programs")
	}
	if paperProgram(8).Source == a.Source {
		t.Fatal("different seeds, same program")
	}
}

// On the board every stream makes progress and no access faults.
func TestProgramRunsOnBoard(t *testing.T) {
	m, err := newPaperMachine(paperProgram(1), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(200_000)
	st := m.Stats()
	if st.BusFaults != 0 || st.IllegalInstr != 0 || st.StackFaults != 0 {
		t.Fatalf("faults on the board: %v", st)
	}
	for i, ps := range st.PerStream {
		if ps.Retired == 0 {
			t.Errorf("stream %d retired nothing", i)
		}
	}
}

// pyQuartiles agrees with Python's statistics.quantiles(range(1, 11), n=4).
func TestPyQuartiles(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := pyQuartiles(v), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Fatalf("quartiles %v, want %v", got, want)
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"disc/internal/core.(*Machine).issue":         "issue",
		"disc/internal/core.(*Machine).execute":       "execute",
		"disc/internal/core.(*Machine).Step":          "step_self",
		"disc/internal/core.(*Guard).StepN":           "guard",
		"disc/internal/sched.(*Scheduler).Next":       "sched",
		"disc/internal/bus.(*Bus).Tick":               "bus",
		"disc/internal/mem.(*Program).Decoded":        "issue",
		"runtime.mallocgc":                            "runtime",
		"disc/internal/serve.(*Server).Step":          "other",
		"disc/internal/core.(*Machine).somethingElse": "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%s) = %s, want %s", fn, got, want)
		}
	}
}

// foldTop reads the rows of `go tool pprof -top` and skips its header.
func TestFoldTop(t *testing.T) {
	top := `File: discbench
Type: cpu
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
    1.50s 75.00% 75.00%      1.50s 75.00%  disc/internal/core.(*Machine).issue (inline)
    400ms 20.00% 95.00%      1.90s 95.00%  disc/internal/core.(*Guard).StepN
    100ms  5.00%   100%      100ms  5.00%  runtime.mallocgc
`
	got, err := foldTop([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	if got["issue"] != 75 || got["guard"] != 20 || got["runtime"] != 5 || got["other"] != 0 {
		t.Fatalf("folded %v", got)
	}
}

// The harness prints exactly the metrics BENCHMARK.json declares, in
// its order.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(doc.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, harness %v", got, endToEnd)
	}
	if got := names(doc.PerLayer); !reflect.DeepEqual(got, perLayerNames()) {
		t.Errorf("BENCHMARK.json per_layer %v, harness %v", got, perLayerNames())
	}
}

// closedLoop's clients share the latency log, the result and the
// totals; run with -race.
func TestClosedLoopConcurrent(t *testing.T) {
	res := newResult()
	lat := newLatencies()
	st := closedLoop(2, 20*time.Millisecond, func(ci, k int) (int, int, uint64) {
		lat.add("op", time.Microsecond)
		res.check(true, "never")
		return 2, 0, 10
	})
	rounds := st.rounds[0] + st.rounds[1]
	if st.attempted != 2*rounds || st.cycles != uint64(10*rounds) || len(lat.get("op")) != rounds || !res.Correct {
		t.Fatalf("totals %+v for %d rounds", st, rounds)
	}
}
