// Command bench is the repository's one fixed benchmark suite: six
// workloads, six end-to-end metrics and a traced per-layer run that every
// later performance or simplicity change is measured with. BENCHMARK.json
// at the repository root declares it to the driver; README.md in this
// directory says what each workload and metric is for.
//
// Usage:
//
//	bench -workload NAME [-seed N] [-seconds S] [-trace 0|1]   one workload, in this process
//	bench [-seed N] [-seconds S] [-trace 0|1] [-out FILE]      the suite, one child process per workload
//	bench -compare OLD.json NEW.json                          judge two suite results by the metric bounds
//	bench -selfcheck                                          run the suite twice, compare the two
//	bench -update-golden                                      rewrite golden/seed1.json (run from bench/)
//	bench -worker                                             serve the shard protocol on stdio
//	bench -manifest                                           print BENCHMARK.json as this build declares it
//
// A -workload run prints its full record on one line and, as the last line
// of standard output, the driver's record: correct, attempted, failed, and
// the end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"

	"qswitch/internal/shard"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this workload in-process (default: the whole suite, one child process each)")
		seed     = fs.Int64("seed", goldenSeed, "seed of every generated input")
		seconds  = fs.Float64("seconds", runSeconds, "how long one run measures")
		trace    = fs.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
		smoke    = fs.Bool("smoke", false, "every cell ÷ ~50 (what the tier-1 test runs)")
		out      = fs.String("out", "", "also write the suite result to this file")
		cmp      = fs.Bool("compare", false, "compare two suite results: -compare OLD.json NEW.json")
		self     = fs.Bool("selfcheck", false, "run the suite twice and compare the two results")
		update   = fs.Bool("update-golden", false, "rewrite golden/seed1.json from this build")
		worker   = fs.Bool("worker", false, "serve the shard worker protocol on stdin/stdout")
		mani     = fs.Bool("manifest", false, "print BENCHMARK.json as this build declares it")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *worker {
		if err := shard.ServeStdio(shard.ServeOptions{}); err != nil {
			return fail(err)
		}
		return 0
	}
	if *mani {
		data, err := manifest()
		if err != nil {
			return fail(err)
		}
		stdout.Write(data)
		return 0
	}
	if *cmp {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two files: OLD.json NEW.json"))
		}
		code, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		return code
	}

	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	golden, err := loadGolden()
	if err != nil {
		return fail(err)
	}
	// Everything the run leaves behind goes beside the executable — under
	// bench/out when built by run.sh — and the scratch directory is removed
	// on every way out: a failed golden, a signal, a reader that went away
	// (SIGPIPE would otherwise kill the process before its defers run).
	outDir := filepath.Dir(exe)
	dir, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGPIPE)
	go func() {
		<-sig
		os.RemoveAll(dir)
		os.Exit(130)
	}()
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke,
		dir: dir, self: []string{exe, "-worker"}, golden: golden,
	}

	switch {
	case *update:
		if err := updateGolden(cfg); err != nil {
			return fail(err)
		}
		return 0
	case *self:
		code, err := selfcheck(cfg, exe, stdout, stderr)
		if err != nil {
			return fail(err)
		}
		return code
	case *workload == "":
		suite, err := runSuite(cfg, exe, stderr)
		if err != nil {
			return fail(err)
		}
		data, err := json.MarshalIndent(suite, "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", data)
		if *out != "" {
			if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
				return fail(err)
			}
		}
		if !suite.correct() {
			return 1
		}
		return 0
	}

	rec, tr, err := runWorkload(cfg)
	if err != nil {
		return fail(err)
	}
	if tr != nil {
		if err := tr.write(filepath.Join(outDir, "trace-"+cfg.workload+".json")); err != nil {
			return fail(err)
		}
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(stderr, "bench: FAILED", f)
	}
	if err := printRecords(stdout, rec); err != nil {
		return fail(err)
	}
	return 0
}

// runWorkload is one run of one workload in this process.
func runWorkload(cfg runConfig) (*runRecord, *tracer, error) {
	rec := &runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Smoke: cfg.smoke,
		Metrics: map[string]summary{},
	}
	values := map[string]float64{}
	if cfg.trace {
		// Every traced run reports every per-layer metric. The kernels
		// are workload-independent; the other workloads' layers come from
		// a smoke-scale probe of each, run before the home workload so its
		// memory high-water mark is its own.
		for name, v := range kernelMetrics(cfg.seed) {
			values[name] = v
		}
		for _, other := range workloads {
			if other.name == cfg.workload {
				continue
			}
			probe := cfg
			probe.workload, probe.smoke, probe.seconds = other.name, true, 0
			m, err := measure(probe)
			if err != nil {
				return nil, nil, err
			}
			layers, err := m.layerMetrics()
			m.w.close()
			if err != nil {
				return nil, nil, fmt.Errorf("layer probe of %s: %w", other.name, err)
			}
			for name, v := range layers {
				values[name] = v
			}
		}
	}

	m, err := measure(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer m.w.close()
	rec.Passes = len(m.passes)
	rec.Attempted, rec.Failed, rec.Failures = m.verify(cfg)
	rec.Correct = rec.Failed == 0
	rec.Cells = m.cellShares()
	if !cfg.trace {
		rec.Metrics = m.endToEndMetrics()
		return rec, nil, nil
	}
	layers, err := m.layerMetrics()
	if err != nil {
		return nil, nil, err
	}
	for name, v := range layers {
		values[name] = v
	}
	for _, d := range perLayer {
		v, ok := values[d.Name]
		if !ok {
			return nil, nil, fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
		rec.Metrics[d.Name] = summary{Value: v, Unit: d.Unit}
		delete(values, d.Name)
	}
	for name := range values {
		return nil, nil, fmt.Errorf("measured %s, which metrics.go does not declare", name)
	}
	rec.CellLayers = m.tr.index().cellLayers()
	return rec, m.tr, nil
}

// printRecords writes the full record, then the driver's record — exactly
// correct, attempted, failed and metrics, each metric exactly value and
// unit — as the last line.
func printRecords(w io.Writer, rec *runRecord) error {
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	driver := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]metric{}}
	for name, s := range rec.Metrics {
		driver.Metrics[name] = metric{s.Value, s.Unit}
	}
	last, err := json.Marshal(driver)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, last)
	return err
}

// machineInfo describes where a result was recorded; it is embedded in the
// result record, so a number is never separated from its configuration.
type machineInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Revision   string `json:"git_revision"`
	ScratchFS  string `json:"scratch_fs"` // what the checkpoint's fsync lands on
}

// suiteRecord is one run of the whole suite.
type suiteRecord struct {
	Machine machineInfo  `json:"machine"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Trace   bool         `json:"trace"`
	Smoke   bool         `json:"smoke,omitempty"`
	Runs    []*runRecord `json:"runs"`
}

func (s *suiteRecord) correct() bool {
	for _, r := range s.Runs {
		if !r.Correct {
			return false
		}
	}
	return true
}

// runSuite runs every workload in a fresh child process of this binary, so
// no workload inherits another's heap, caches or probe state.
func runSuite(cfg runConfig, exe string, stderr io.Writer) (*suiteRecord, error) {
	suite := &suiteRecord{Machine: machine(cfg.dir), Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Smoke: cfg.smoke}
	for _, w := range workloads {
		name := w.name
		fmt.Fprintf(stderr, "bench: %s ...\n", name)
		args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds)}
		if cfg.trace {
			args = append(args, "-trace", "1")
		}
		if cfg.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = stderr
		outb, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
		if len(lines) < 2 {
			return nil, fmt.Errorf("workload %s printed no record", name)
		}
		rec := &runRecord{}
		if err := json.Unmarshal([]byte(lines[len(lines)-2]), rec); err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		suite.Runs = append(suite.Runs, rec)
	}
	return suite, nil
}

// machine gathers the machine description.
func machine(scratch string) machineInfo {
	mi := machineInfo{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Revision: "unknown", ScratchFS: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				mi.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				mi.Revision = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					mi.Revision += "+modified"
				}
			}
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(scratch, &st); err == nil {
		names := map[int64]string{0xef53: "ext2/3/4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683e: "btrfs"}
		mi.ScratchFS = fmt.Sprintf("%s (statfs type %#x)", names[int64(st.Type)], st.Type)
	}
	return mi
}
