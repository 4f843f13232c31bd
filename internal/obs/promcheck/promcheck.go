// Package promcheck is a strict parser of the Prometheus text exposition
// format, the validator that obs's and shard's tests and CI's live
// /metrics scrape check run over the registry's output. Only test files
// import it, so it links into no binary.
package promcheck

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"qswitch/internal/obs"
)

// Parse strictly parses Prometheus text exposition format
// (version 0.0.4) and returns every sample keyed by its full name
// (including the label block, _bucket/_sum/_count suffixes and all). It
// is the validator behind the CI /metrics scrape check: malformed names,
// label syntax, values, duplicate samples, unknown TYPE keywords and
// samples typed inconsistently with their family's TYPE line are all
// errors.
func Parse(r io.Reader) (map[string]float64, error) {
	samples := map[string]float64{}
	types := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, types); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		name, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if _, dup := samples[name]; dup {
			return nil, fmt.Errorf("line %d: duplicate sample %q", lineNo, name)
		}
		if err := checkSampleFamily(name, types); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		samples[name] = value
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return samples, nil
}

// parseComment handles # TYPE / # HELP lines (free comments pass).
func parseComment(line string, types map[string]string) error {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], fields[3]
		if err := validateFamilyName(name); err != nil {
			return fmt.Errorf("TYPE line: %w", err)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", typ)
		}
		if _, dup := types[name]; dup {
			return fmt.Errorf("duplicate TYPE line for %q", name)
		}
		types[name] = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		if err := validateFamilyName(fields[2]); err != nil {
			return fmt.Errorf("HELP line: %w", err)
		}
	}
	return nil
}

// parseSample splits one sample line into its full name and value; an
// optional trailing timestamp is accepted and dropped.
func parseSample(line string) (string, float64, error) {
	name := line
	rest := ""
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.IndexByte(line, '}')
		if j < i {
			return "", 0, fmt.Errorf("unterminated label block in %q", line)
		}
		name, rest = line[:j+1], line[j+1:]
	} else if i := strings.IndexAny(line, " \t"); i >= 0 {
		name, rest = line[:i], line[i:]
	}
	if err := obs.ValidateName(name); err != nil {
		return "", 0, err
	}
	fields := strings.Fields(rest)
	if len(fields) != 1 && len(fields) != 2 {
		return "", 0, fmt.Errorf("want `name value [timestamp]`, got %q", line)
	}
	value, err := parsePromValue(fields[0])
	if err != nil {
		return "", 0, err
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", 0, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, value, nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sample value %q", s)
	}
	return v, nil
}

// checkSampleFamily verifies a sample against its family's TYPE line
// when one was declared; undeclared families are allowed (TYPE lines are
// optional in the format), mismatched histogram/summary series are not.
func checkSampleFamily(name string, types map[string]string) error {
	base, _, _ := strings.Cut(name, "{")
	if typ, ok := types[base]; ok {
		if typ == "histogram" || typ == "summary" {
			return fmt.Errorf("sample %q collides with declared %s family %q", name, typ, base)
		}
		return nil
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		trimmed, ok := strings.CutSuffix(base, suffix)
		if !ok {
			continue
		}
		if typ, ok := types[trimmed]; ok {
			if typ != "histogram" && typ != "summary" {
				return fmt.Errorf("sample %q uses series suffix %q but family %q is a %s", name, suffix, trimmed, typ)
			}
			return nil
		}
	}
	return nil
}

// validateFamilyName checks a TYPE or HELP line's metric name: a base name
// with no label block.
func validateFamilyName(name string) error {
	if strings.ContainsAny(name, "{}") {
		return fmt.Errorf("metric name %q has a label block", name)
	}
	return obs.ValidateName(name)
}
