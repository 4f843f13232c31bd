// Command tracegen generates, inspects and converts packet traces.
//
// Examples:
//
//	tracegen -o burst.qsw -n 8 -slots 1000 -traffic bursty -values zipf
//	tracegen -inspect burst.qsw
//	tracegen -convert burst.qsw -json burst.json
//
// Sparse workloads (long idle gaps, for the event-driven simulator):
//
//	tracegen -o sparse.qsw -n 16 -slots 1000000 -traffic poissonburst -load 0.01
//	tracegen -o night.qsw  -n 8  -slots 100000  -traffic diurnal -load 0.05
//	tracegen -o tail.qsw   -n 8  -slots 100000  -traffic heavytail -load 0.02
//
// poissonburst emits ~4-packet line-rate bursts separated by geometric
// idle gaps; diurnal modulates Bernoulli traffic through a sinusoidal
// day/night cycle whose troughs go silent; heavytail draws Pareto(1.5)
// interarrival gaps; burstblock converges 16-packet bursts from every
// input onto one hot output (the backlogged-but-quiescent shape for the
// quiescent drain fast path); crossdrain rotates conflict-free
// all-to-all bursts that park the backlog across a buffered crossbar's
// crosspoint matrix. For all five, -load sets the mean per-input
// offered load.
//
// Flow-level traffic (the flagship workload for streamed runs):
//
//	tracegen -o flows.qsw -n 16 -slots 100000 -traffic flowmix -load 0.7
//
// flowmix opens short "rat" and long "elephant" flows per input at a
// stage-varying rate; every open flow emits one packet per slot toward
// its flow destination, so traffic has flow-level trains, a heavy/light
// size mix and a diurnal-style intensity profile. -load sets the
// approximate mean per-input packet load.
package main

import (
	"flag"
	"fmt"
	"os"

	"qswitch/internal/packet"
	"qswitch/internal/rng"
)

func main() {
	var (
		out     = flag.String("o", "", "output binary trace file")
		inspect = flag.String("inspect", "", "print a summary of an existing binary trace")
		convert = flag.String("convert", "", "binary trace to convert")
		jsonOut = flag.String("json", "", "JSON output path for -convert")
		n       = flag.Int("n", 8, "input ports")
		m       = flag.Int("m", 0, "output ports (defaults to -n)")
		slots   = flag.Int("slots", 1000, "arrival slots")
		traffic = flag.String("traffic", "uniform", "uniform, bursty, hotspot, diagonal, permutation, poissonburst, diurnal, heavytail, burstblock, crossdrain, flowmix")
		values  = flag.String("values", "unit", "unit, two, uniform, zipf, geometric")
		load    = flag.Float64("load", 0.9, "offered load")
		seed    = flag.Int64("seed", 1, "RNG seed")
	)
	flag.Parse()
	if *m == 0 {
		*m = *n
	}

	switch {
	case *inspect != "":
		tr := readTrace(*inspect)
		summarize(tr)
	case *convert != "":
		if *jsonOut == "" {
			fatal("-convert requires -json OUT")
		}
		tr := readTrace(*convert)
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		if err := tr.WriteJSON(f); err != nil {
			fatal("writing json: %v", err)
		}
		fmt.Printf("wrote %s (%d packets)\n", *jsonOut, len(tr.Packets))
	case *out != "":
		gen, err := buildGenerator(*traffic, *values, *load)
		if err != nil {
			fatal("%v", err)
		}
		seq := gen.Generate(rng.New(*seed), *n, *m, *slots)
		tr := &packet.Trace{Inputs: *n, Outputs: *m, Packets: seq}
		f, err := os.Create(*out)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		if err := tr.WriteBinary(f); err != nil {
			fatal("writing trace: %v", err)
		}
		fmt.Printf("wrote %s: %s, %d packets over %d slots\n", *out, gen.Name(), len(seq), *slots)
	default:
		fmt.Fprintln(os.Stderr, "tracegen: nothing to do; use -o, -inspect or -convert")
		flag.Usage()
		os.Exit(2)
	}
}

func readTrace(path string) *packet.Trace {
	tr, err := packet.LoadTrace(path)
	if err != nil {
		fatal("%v", err)
	}
	return tr
}

func summarize(tr *packet.Trace) {
	fmt.Printf("geometry : %dx%d\n", tr.Inputs, tr.Outputs)
	fmt.Printf("packets  : %d\n", len(tr.Packets))
	fmt.Printf("slots    : %d (max arrival)\n", tr.Packets.MaxSlot()+1)
	fmt.Printf("value    : total %d, unit=%v\n", tr.Packets.TotalValue(), tr.Packets.IsUnit())
	cnt := tr.Packets.CountByPair(tr.Inputs, tr.Outputs)
	fmt.Println("traffic matrix (packets in->out):")
	for i := range cnt {
		fmt.Printf("  in%-3d:", i)
		for j := range cnt[i] {
			fmt.Printf(" %6d", cnt[i][j])
		}
		fmt.Println()
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}
