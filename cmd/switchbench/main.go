// Command switchbench runs the paper-reproduction experiment suite
// (E1–E16; -list names each with the paper claim it tests) and renders
// each experiment's tables as ASCII and, optionally, CSV files.
//
// Usage:
//
//	switchbench -list
//	switchbench -run e1,e5 [-quick] [-seed 42] [-csv results/]
//	switchbench -all [-quick] [-csv results/]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"qswitch/internal/experiments"
	"qswitch/internal/obs"
	"qswitch/internal/obs/wire"
	"qswitch/internal/stats"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list available experiments and exit")
		run    = flag.String("run", "", "comma-separated experiment ids to run (e.g. e1,e5)")
		all    = flag.Bool("all", false, "run every experiment")
		quick  = flag.Bool("quick", false, "reduced workloads (seconds instead of minutes)")
		ciTgt  = flag.Float64("ci-target", 0, "sequential stopping: stop each ratio estimation once the Student-t CI half-width on the mean ratio is <= this (0 disables; seed budget still caps)")
		conf   = flag.Float64("confidence", 0.95, "confidence level for CI columns and -ci-target stopping")
		chunk  = flag.Int("ci-chunk", 0, "seeds per sequential stopping decision (0 selects the default)")
		paired = flag.Bool("paired", false, "run the E2b beta sweep as a paired fleet (common random numbers, one offline solve per seed; byte-identical table)")
		seed   = flag.Int64("seed", 1, "base RNG seed")
		csv    = flag.String("csv", "", "directory to write per-table CSV files into")
		figs   = flag.Bool("figures", true, "render ASCII charts for figure-type experiments")
		par    = flag.Int("parallel", 1, "run up to this many experiments concurrently (output stays ordered); the ratio estimations inside an experiment already use every core (GOMAXPROCS)")
		events = flag.String("events", "", "append structured JSONL run events to this file")
	)
	obsCLI := wire.Flags(flag.CommandLine, true, "trace")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	var ids []string
	switch {
	case *all:
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	case *run != "":
		ids = strings.Split(*run, ",")
	default:
		fmt.Fprintln(os.Stderr, "switchbench: nothing to do; use -list, -run or -all")
		flag.Usage()
		os.Exit(2)
	}

	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			fatal("creating csv dir: %v", err)
		}
	}

	sess, err := obsCLI.Start()
	if err != nil {
		fatal("%v", err)
	}
	defer sess.Close()
	var runLog *obsLog
	if *events != "" {
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		runLog = &obsLog{l: obs.NewRunLog(f)}
		// gomaxprocs is the number of workers each ratio estimation runs on.
		runLog.l.Info("run start", "args", strings.Join(os.Args[1:], " "), "gomaxprocs", runtime.GOMAXPROCS(0))
	}

	opts := experiments.Options{
		Quick: *quick, Seed: *seed,
		CITarget: stats.Target{AbsWidth: *ciTgt, Confidence: *conf},
		SeqChunk: *chunk, Paired: *paired, Probes: sess.Reg,
	}
	// Each experiment renders into its own buffer so concurrent runs
	// still print in the requested order.
	type report struct {
		out bytes.Buffer
		err error
	}
	reports := make([]*report, len(ids))
	sem := make(chan struct{}, max(1, *par))
	var wg sync.WaitGroup
	for k, rawID := range ids {
		k := k
		id := strings.TrimSpace(rawID)
		exp, ok := experiments.ByID(id)
		if !ok {
			fatal("unknown experiment %q (use -list)", id)
		}
		reports[k] = &report{}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			r := reports[k]
			fmt.Fprintf(&r.out, "### %s — %s\n", exp.ID, exp.Title)
			fmt.Fprintf(&r.out, "    %s\n\n", exp.Claim)
			// With concurrent experiments the process-wide probe counters
			// interleave, so the per-experiment attribution is only
			// reported serially.
			var probesBefore map[string]float64
			if *par <= 1 {
				probesBefore = opts.ProbeSnapshot()
			}
			start := time.Now()
			tables, err := exp.Run(opts)
			if err != nil {
				r.err = fmt.Errorf("%s failed: %w", exp.ID, err)
				return
			}
			for ti, tb := range tables {
				tb.Render(&r.out)
				fmt.Fprintln(&r.out)
				if *csv != "" {
					if err := writeCSV(*csv, exp.ID, ti, tb); err != nil {
						r.err = fmt.Errorf("writing csv: %w", err)
						return
					}
				}
			}
			if *figs {
				charts, err := experiments.BuildFigures(exp.ID, tables)
				if err != nil {
					r.err = fmt.Errorf("building figures: %w", err)
					return
				}
				for _, ch := range charts {
					ch.Render(&r.out, 64, 16)
					fmt.Fprintln(&r.out)
				}
			}
			fmt.Fprintf(&r.out, "    (%s in %.2fs)\n\n", exp.ID, time.Since(start).Seconds())
			if probesBefore != nil {
				delta := obs.DiffSnapshot(probesBefore, opts.ProbeSnapshot())
				if line := probeLine(delta); line != "" {
					fmt.Fprintf(&r.out, "    probes: %s\n\n", line)
				}
				runLog.snapshot(exp.ID, delta)
			}
		}()
	}
	wg.Wait()
	for _, r := range reports {
		if r.err != nil {
			fatal("%v", r.err)
		}
		os.Stdout.Write(r.out.Bytes())
	}
	if runLog != nil {
		obs.LogSnapshot(runLog.l, "run complete", sess.Reg)
	}
}

// obsLog wraps the optional -events logger so call sites stay nil-safe.
type obsLog struct {
	l *slog.Logger
	m sync.Mutex
}

func (o *obsLog) snapshot(id string, delta map[string]float64) {
	if o == nil {
		return
	}
	o.m.Lock()
	defer o.m.Unlock()
	attrs := make([]any, 0, 2*len(delta)+2)
	attrs = append(attrs, "experiment", id)
	for _, k := range sortedKeys(delta) {
		attrs = append(attrs, k, delta[k])
	}
	o.l.Info("experiment probes", attrs...)
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// probeLine compresses a probe-counter delta into the one-line summary
// printed under each serially-run experiment: engine work, backend
// split, judge work. Counters the experiment never moved are omitted.
func probeLine(delta map[string]float64) string {
	var parts []string
	add := func(format string, args ...any) { parts = append(parts, fmt.Sprintf(format, args...)) }
	if runs := delta[obs.MetricEngineRuns]; runs > 0 {
		slots := delta[obs.MetricEngineSlots]
		jumped := delta[obs.MetricEngineJumpedSlots]
		add("%.0f engine runs, %.0f slots (%.0f%% jumped)", runs, slots, 100*jumped/max(slots, 1))
	}
	if k := delta[obs.MetricFleetKernel]; k > 0 {
		add("%.0f kernel instances", k)
	}
	if f := delta[obs.MetricFleetFallback]; f > 0 {
		add("%.0f fallback instances", f)
	}
	if s := delta[obs.MetricJudgeSolves]; s > 0 {
		add("%.0f judge solves (%.1f epochs/solve)", s, delta[obs.MetricJudgeEpochs]/s)
	}
	if x := delta[obs.MetricJudgeExactSolves]; x > 0 {
		add("%.0f exact solves", x)
	}
	return strings.Join(parts, " · ")
}

func writeCSV(dir, id string, idx int, tb *stats.Table) error {
	name := fmt.Sprintf("%s_%d.csv", id, idx)
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	tb.RenderCSV(f)
	return nil
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "switchbench: "+format+"\n", args...)
	os.Exit(1)
}
