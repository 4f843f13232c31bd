package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of one (metric, workload) pair.
const (
	unchanged  = "unchanged"
	improved   = "improved"
	regressed  = "REGRESSED"
	unresolved = "unresolved"
)

// judge compares one metric's new summary with its old one by the change
// in the metric's bad direction as a share of the old median. A pair is
// unresolved, not unchanged, when either side's inter-quartile spread
// exceeds the bound — unless every new sample beats every old one. setup_s
// is exempt from the spread rule, as it is in the driver's acceptance of the
// suite: a run has only three samples of it, and the first set-up of a
// process is the cold one.
func judge(d metricDef, old, cur summary) string {
	if old.Value == 0 || cur.Value == 0 {
		return unresolved
	}
	worse := (cur.Value - old.Value) / old.Value
	clear := cur.Max < old.Min
	if d.Better == "higher" {
		worse, clear = -worse, cur.Min > old.Max
	}
	spread := func(s summary) float64 { return (s.Q3 - s.Q1) / s.Value }
	switch noisy := d.Name != "setup_s" && max(spread(old), spread(cur)) > d.Bound; {
	case noisy && clear:
		return improved
	case noisy:
		return unresolved
	case worse > d.Bound:
		return regressed
	case worse < -d.Bound:
		return improved
	}
	return unchanged
}

// compareSuites prints one row per (metric, workload) with both medians,
// their quartiles and the ratio with its base, and counts the pairs that
// regressed or could not be resolved. A larger share of failed operations
// is a regression whatever the timings say.
func compareSuites(old, cur *suiteRecord, w io.Writer) (regressions, unresolvedPairs int) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median [q1,q3]\tnew median [q1,q3]\tnew/old\tbound\tverdict")
	byName := map[string]*runRecord{}
	for _, r := range old.Runs {
		byName[r.Workload] = r
	}
	for _, c := range cur.Runs {
		o := byName[c.Workload]
		if o == nil {
			continue
		}
		for _, d := range endToEnd {
			om, ok1 := o.Metrics[d.Name]
			cm, ok2 := c.Metrics[d.Name]
			if !ok1 || !ok2 {
				continue
			}
			verdict := judge(d, om, cm)
			switch verdict {
			case regressed:
				regressions++
			case unresolved:
				unresolvedPairs++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g,%.6g] %s\t%.6g [%.6g,%.6g] %s\t%.4f of %.6g\t%.0f%%\t%s\n",
				c.Workload, d.Name, om.Value, om.Q1, om.Q3, om.Unit, cm.Value, cm.Q1, cm.Q3, cm.Unit,
				cm.Value/om.Value, om.Value, 100*d.Bound, verdict)
		}
		oldShare := float64(o.Failed) / float64(max(o.Attempted, 1))
		curShare := float64(c.Failed) / float64(max(c.Attempted, 1))
		if curShare > oldShare {
			regressions++
			fmt.Fprintf(tw, "%s\tfailed operations\t%d of %d\t%d of %d\t\t\t%s\n",
				c.Workload, o.Failed, o.Attempted, c.Failed, c.Attempted, regressed)
		}
	}
	tw.Flush()
	return regressions, unresolvedPairs
}

func readSuite(path string) (*suiteRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &suiteRecord{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// report compares two suite results and returns the exit status: 1 on a
// regression, and when strict on an unresolved pair too.
func report(old, cur *suiteRecord, w io.Writer, strict bool) int {
	regressions, unres := compareSuites(old, cur, w)
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressions, unres)
	if regressions > 0 || strict && unres > 0 {
		return 1
	}
	return 0
}

// compareFiles is bench -compare.
func compareFiles(oldPath, newPath string, w io.Writer) (int, error) {
	old, err := readSuite(oldPath)
	if err != nil {
		return 0, err
	}
	cur, err := readSuite(newPath)
	if err != nil {
		return 0, err
	}
	return report(old, cur, w, false), nil
}

// selfcheck runs the suite twice on the same code and compares the two
// results with the code -compare uses. Two runs of one program must agree
// within the suite's own bounds with no pair unresolved; if they do not,
// the suite — not the program — is what needs work.
func selfcheck(cfg runConfig, exe string, stdout, stderr io.Writer) (int, error) {
	first, err := runSuite(cfg, exe, stderr)
	if err != nil {
		return 0, err
	}
	second, err := runSuite(cfg, exe, stderr)
	if err != nil {
		return 0, err
	}
	if !first.correct() || !second.correct() {
		return 1, nil
	}
	return report(first, second, stdout, true), nil
}
