// Command switchsim runs a single switch simulation and prints its
// metrics. Traffic comes from a named generator or a trace file.
//
// Examples:
//
//	switchsim -model cioq -policy gm -n 8 -load 0.95 -slots 1000
//	switchsim -model crossbar -policy cpg -n 16 -traffic hotspot -values zipf
//	switchsim -model cioq -policy pg -trace burst.qsw
//	switchsim -model oq -n 8 -load 1.2 -ub      # ideal OQ + offline bound
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qswitch"
	"qswitch/internal/obs/wire"
	"qswitch/internal/offline"
	"qswitch/internal/packet"
)

// policyUsage is the -policy help text: the grammar and the names of the
// policy table.
var policyUsage = "scheduling policy: name or name(key=value,...), e.g. pg(beta=2); cioq: " +
	strings.Join(qswitch.CIOQPolicyNames(), ", ") + "; crossbar: " + strings.Join(qswitch.CrossbarPolicyNames(), ", ")

func main() {
	var (
		model   = flag.String("model", "cioq", "switch model: cioq, crossbar or oq")
		policy  = flag.String("policy", "gm", policyUsage)
		n       = flag.Int("n", 8, "input ports")
		m       = flag.Int("m", 0, "output ports (defaults to -n)")
		bin     = flag.Int("bin", 4, "input queue capacity B(Q_ij)")
		bout    = flag.Int("bout", 4, "output queue capacity B(Q_j)")
		bx      = flag.Int("bx", 2, "crosspoint queue capacity B(C_ij)")
		speedup = flag.Int("speedup", 1, "scheduling cycles per slot")
		slots   = flag.Int("slots", 1000, "arrival slots to generate")
		horizon = flag.Int("horizon", 0, "simulation horizon (0 = drain fully)")
		traffic = flag.String("traffic", "uniform", "traffic: uniform, bursty, hotspot, diagonal, permutation, poissonburst, diurnal, heavytail, burstblock, crossdrain, flowmix")
		values  = flag.String("values", "unit", "values: unit, two, uniform, zipf, geometric")
		load    = flag.Float64("load", 0.9, "offered load per input per slot")
		seed    = flag.Int64("seed", 1, "RNG seed")
		trace   = flag.String("trace", "", "binary trace file to replay instead of generating")
		stream  = flag.Bool("stream", false, "pull arrivals lazily (generated or decoded on demand) instead of materializing the sequence: bounded memory on huge traces/horizons, bit-identical metrics")
		ub      = flag.Bool("ub", false, "also compute the offline upper bound")
		lat     = flag.Bool("latency", false, "record and print latency statistics")
		compare = flag.Bool("compare", false, "run ALL policies of the model on the same workload and tabulate")
	)
	// -trace already means "replay this trace file" here, so the runtime
	// execution-trace profile flag is spelled -exectrace.
	obsCLI := wire.Flags(flag.CommandLine, "exectrace")
	flag.Parse()
	sess, err := obsCLI.Start()
	if err != nil {
		fatal("%v", err)
	}
	defer sess.Close()
	if *m == 0 {
		*m = *n
	}
	cfg := qswitch.Config{
		Inputs: *n, Outputs: *m,
		InputBuf: *bin, OutputBuf: *bout, CrossBuf: *bx,
		Speedup: *speedup, Slots: *horizon,
		RecordLatency: *lat,
	}

	if *stream {
		if *compare {
			fatal("-compare needs the materialized sequence; drop -stream")
		}
		if *ub {
			fatal("-ub needs the materialized sequence; drop -stream")
		}
		cfg.StreamMetrics = *lat
		var src qswitch.ArrivalStream
		if *trace != "" {
			ts, err := qswitch.OpenTraceStream(*trace)
			if err != nil {
				fatal("%v", err)
			}
			defer ts.Close()
			if ts.Inputs != cfg.Inputs || ts.Outputs != cfg.Outputs {
				fmt.Fprintf(os.Stderr, "switchsim: note: trace geometry %dx%d overrides flags\n",
					ts.Inputs, ts.Outputs)
				cfg.Inputs, cfg.Outputs = ts.Inputs, ts.Outputs
			}
			src = ts
		} else {
			gen, err := buildGenerator(*traffic, *values, *load)
			if err != nil {
				fatal("%v", err)
			}
			src = qswitch.StreamTraffic(gen, cfg, *slots, *seed)
		}
		var res *qswitch.Result
		var err error
		switch *model {
		case "cioq":
			res, err = qswitch.SimulateCIOQStream(cfg, *policy, src)
		case "crossbar":
			res, err = qswitch.SimulateCrossbarStream(cfg, *policy, src)
		default:
			fatal("-stream supports models cioq and crossbar (got %q)", *model)
		}
		if err != nil {
			fatal("%v", err)
		}
		printResult(*model, cfg, res, *slots, *lat)
		return
	}

	var seq qswitch.Sequence
	if *trace != "" {
		tr, err := packet.LoadTrace(*trace)
		if err != nil {
			fatal("%v", err)
		}
		if tr.Inputs != cfg.Inputs || tr.Outputs != cfg.Outputs {
			fmt.Fprintf(os.Stderr, "switchsim: note: trace geometry %dx%d overrides flags\n",
				tr.Inputs, tr.Outputs)
			cfg.Inputs, cfg.Outputs = tr.Inputs, tr.Outputs
		}
		seq = tr.Packets
	} else {
		gen, err := buildGenerator(*traffic, *values, *load)
		if err != nil {
			fatal("%v", err)
		}
		seq = qswitch.GenerateTraffic(gen, cfg, *slots, *seed)
	}

	if *compare {
		comparePolicies(*model, cfg, seq, *ub)
		return
	}

	var res *qswitch.Result
	switch *model {
	case "cioq":
		res, err = qswitch.SimulateCIOQ(cfg, *policy, seq)
	case "crossbar":
		res, err = qswitch.SimulateCrossbar(cfg, *policy, seq)
	case "oq":
		res, err = qswitch.SimulateOQ(cfg, seq)
	default:
		fatal("unknown model %q (cioq, crossbar, oq)", *model)
	}
	if err != nil {
		fatal("%v", err)
	}

	printResult(*model, cfg, res, *slots, *lat)
	if *ub {
		bound, err := offline.OQUpperBound(cfg, seq, *model == "crossbar")
		if err != nil {
			fatal("upper bound: %v", err)
		}
		fmt.Printf("offlineUB: %d (policy achieved %.1f%% of the bound)\n",
			bound, 100*float64(res.M.Benefit)/float64(bound))
	}
}

// printResult prints the standard single-run metrics block.
func printResult(model string, cfg qswitch.Config, res *qswitch.Result, slots int, lat bool) {
	fmt.Printf("model    : %s (%dx%d, Bin=%d Bout=%d Bx=%d, speedup %d)\n",
		model, cfg.Inputs, cfg.Outputs, cfg.InputBuf, cfg.OutputBuf, cfg.CrossBuf, cfg.Speedup)
	fmt.Printf("policy   : %s\n", res.Policy)
	fmt.Printf("slots    : %d (arrivals over %d)\n", res.Slots, slots)
	fmt.Printf("arrived  : %d packets, value %d\n", res.M.Arrived, res.M.ArrivedValue)
	fmt.Printf("accepted : %d   rejected: %d\n", res.M.Accepted, res.M.Rejected)
	fmt.Printf("preempted: input=%d cross=%d output=%d\n",
		res.M.PreemptedInput, res.M.PreemptedCross, res.M.PreemptedOutput)
	fmt.Printf("sent     : %d packets (%.1f%% loss)\n", res.M.Sent, 100*res.M.LossRate())
	fmt.Printf("benefit  : %d (%.3f value/slot, %.3f pkts/slot)\n",
		res.M.Benefit, res.GoodputValue(), res.Throughput())
	fmt.Printf("occupancy: input %.2f, output %.2f (mean pkts)\n",
		res.M.MeanInputOccupancy(), res.M.MeanOutputOccupancy())
	if lat {
		fmt.Printf("latency  : mean %.2f slots, max %d\n", res.M.MeanLatency(), res.M.LatencyMax)
	}
}

// comparePolicies runs every registered policy of the model on the same
// workload and prints a leaderboard.
func comparePolicies(model string, cfg qswitch.Config, seq qswitch.Sequence, withUB bool) {
	var names []string
	run := func(name string) (*qswitch.Result, error) { return qswitch.SimulateCIOQ(cfg, name, seq) }
	switch model {
	case "cioq":
		names = qswitch.CIOQPolicyNames()
	case "crossbar":
		names = qswitch.CrossbarPolicyNames()
		run = func(name string) (*qswitch.Result, error) { return qswitch.SimulateCrossbar(cfg, name, seq) }
	default:
		fatal("-compare needs model cioq or crossbar")
	}
	var bound int64 = -1
	if withUB {
		b, err := offline.CombinedUpperBound(cfg, seq, model == "crossbar")
		if err != nil {
			fatal("upper bound: %v", err)
		}
		bound = b
	}
	fmt.Printf("%-16s %12s %10s %10s %10s\n", "policy", "benefit", "sent", "loss%", "of-UB%")
	for _, name := range names {
		res, err := run(name)
		if err != nil {
			fatal("%s: %v", name, err)
		}
		ubCell := "-"
		if bound > 0 {
			ubCell = fmt.Sprintf("%9.1f%%", 100*float64(res.M.Benefit)/float64(bound))
		}
		fmt.Printf("%-16s %12d %10d %9.1f%% %10s\n",
			name, res.M.Benefit, res.M.Sent, 100*res.M.LossRate(), ubCell)
	}
	if bound > 0 {
		fmt.Printf("\noffline upper bound: %d\n", bound)
	}
}

// buildGenerator resolves the shared traffic/value names; the mapping
// lives in internal/packet so switchsim and tracegen always agree.
func buildGenerator(traffic, values string, load float64) (qswitch.Generator, error) {
	return packet.GeneratorByName(traffic, values, load)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "switchsim: "+format+"\n", args...)
	os.Exit(1)
}
