package main

import (
	"fmt"
	"strings"

	"disc/internal/analysis"
	"disc/internal/bus"
	"disc/internal/core"
	"disc/internal/isa"
	"disc/internal/rng"
	"disc/internal/workload"
)

// The standard peripheral board discserve (and discsim) wires onto
// every session, in attach order. The benchmark mirrors it so the
// generated programs address only mapped devices and so the
// reference-pipeline replay runs on the very board the server used.
// extramWaits is the board's default external-RAM access time, which is
// also Table 4.1's tmem for every load that touches memory.
const extramWaits = 4

// ioDevice is one I/O peripheral of the board.
type ioDevice struct {
	name string
	off  uint16 // offset from isa.IOBase
	size uint16
	wait int
}

var boardIO = []ioDevice{
	{"timer0", 0x00, 4, 2},
	{"uart0", 0x10, 2, 6},
	{"gpio0", 0x20, 8, 1},
	{"adc0", 0x30, 4, 4},
	{"step0", 0x40, 2, 3},
}

// boardRanges is the board's device map for the static analyzer.
func boardRanges() []analysis.BusRange {
	r := []analysis.BusRange{{Base: isa.ExternalBase, Size: 0x1000, Wait: extramWaits}}
	for _, d := range boardIO {
		r = append(r, analysis.BusRange{Base: isa.IOBase + d.off, Size: d.size, Wait: d.wait})
	}
	return r
}

// attachBoard wires the board onto m exactly as discserve does (same
// devices, bases, sizes, wait states and attach order), so a snapshot
// taken by the server matches a machine built here device for device.
func attachBoard(m *core.Machine) error {
	b := m.Bus()
	devs := []struct {
		base, size uint16
		dev        bus.Device
	}{
		{isa.ExternalBase, 0x1000, bus.NewRAM("extram", 0x1000, extramWaits)},
		{isa.IOBase + 0x00, 4, bus.NewTimer("timer0", 2, m.RaiseIRQ, 0, 4)},
		{isa.IOBase + 0x10, 2, bus.NewUART("uart0", 6)},
		{isa.IOBase + 0x20, 8, bus.NewGPIO("gpio0", 1)},
		{isa.IOBase + 0x30, 4, bus.NewADC("adc0", 4, 25, nil)},
		{isa.IOBase + 0x40, 2, bus.NewStepper("step0", 3)},
	}
	for _, d := range devs {
		if err := b.Attach(d.base, d.size, d.dev); err != nil {
			return err
		}
	}
	return nil
}

// nearestIO picks the board device whose wait states are closest to a
// sampled I/O latency, the lower index on a tie. The board's slowest
// device (uart0) has 6 wait states, so Table 4.1's 20- and 30-cycle
// mean I/O times all land on it: I/O stalls here are shorter than the
// model's, which the README states.
func nearestIO(lat int) int {
	best := 0
	for i, d := range boardIO {
		if abs(d.wait-lat) < abs(boardIO[best].wait-lat) {
			best = i
		}
	}
	return best
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// bodyLen is the number of modelled instructions per stream's loop.
const bodyLen = 2000

// streamBase is where stream s's code sits in program memory. It keeps
// every stream clear of the interrupt vector table at 0x0200.
func streamBase(s int) uint16 { return uint16(0x1000 * (s + 1)) }

// entryLabel names stream s's start label.
func entryLabel(s int) string { return fmt.Sprintf("s%d_entry", s) }

// Program is one generated multi-stream program.
type Program struct {
	Source string
	Loads  []workload.Params // stream i runs Loads[i]
	Start  map[string]string // discserve's create "start" map
}

// paperLoads are the loads of the benchmark's 4-stream program: stream
// i runs Table 4.1 load i+1. The on/off loads (2 and 4) run
// always-active, as the core benchmarks do: a generated program has no
// way to sleep between bursts without changing the instruction mix.
func paperLoads() []workload.Params {
	loads := workload.Base()
	for i := range loads {
		loads[i].MeanOn, loads[i].MeanOff = 0, 0
	}
	return loads
}

// Generate emits one program with a stream per load, retargeted at the
// board. Each stream's loop body is a static unrolling of the §4.1
// model's per-instruction draw (workload.Process.Issue): a countdown to
// the next external request drawn Poisson(mean_req), the request going
// to external RAM with probability alpha and otherwise to the I/O
// device nearest a Poisson(mean_io) latency, and every other
// instruction a taken jump with probability aljmp or a plain ALU op.
// The output is a pure function of (loads, seed).
func Generate(loads []workload.Params, seed uint64) Program {
	var b strings.Builder
	start := make(map[string]string, len(loads))
	for s, p := range loads {
		genStream(&b, s, p, rng.NewChild(seed, uint64(s)))
		start[fmt.Sprint(s)] = entryLabel(s)
	}
	return Program{Source: b.String(), Loads: loads, Start: start}
}

func genStream(b *strings.Builder, s int, p workload.Params, src *rng.Source) {
	fmt.Fprintf(b, "; stream %d: %s\n.org 0x%04x\n%s:\n", s, p.Name, streamBase(s), entryLabel(s))
	for r := 0; r < 4; r++ {
		fmt.Fprintf(b, "    LDI R%d, 0\n", r)
	}
	fmt.Fprintf(b, "    LI R7, 0x%04x\n    LI R4, 0x%04x\n", isa.ExternalBase, isa.IOBase)
	fmt.Fprintf(b, "s%d_loop:\n", s)
	toReq := -1
	roll := func() {
		if p.MeanReq > 0 {
			toReq = max(src.Poisson(p.MeanReq), 1)
		}
	}
	roll()
	for i := 0; i < bodyLen; i++ {
		if toReq > 0 {
			toReq--
			if toReq == 0 {
				roll()
				if src.Bool(p.Alpha) {
					fmt.Fprintf(b, "    LD R6, [R7+%d]\n", src.Intn(32))
				} else {
					d := boardIO[nearestIO(src.Poisson(p.MeanIO))]
					fmt.Fprintf(b, "    LD R6, [R4+%d]\n", int(d.off)+src.Intn(int(d.size)))
				}
				continue
			}
		}
		if p.AlJmp > 0 && src.Bool(p.AlJmp) {
			lbl := fmt.Sprintf("s%d_j%d", s, i)
			fmt.Fprintf(b, "    JMP %s\n%s:\n", lbl, lbl)
			continue
		}
		fmt.Fprintf(b, "    ADDI R%d, 1\n", src.Intn(4))
	}
	fmt.Fprintf(b, "    JMP s%d_loop\n", s)
}
