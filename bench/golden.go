package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenSeed is the seed the recorded goldens were produced with. Runs on
// any other seed fall back to the invariants that need no golden: every
// pass reproduces the warm-up pass, sharded tables equal in-process tables,
// resume executes nothing, every measured ratio is within its paper bound.
const goldenSeed = 1

//go:embed golden/seed1.json
var goldenJSON []byte

// goldenSet holds, per scale ("full", "smoke"), workload and cell, the text
// of the cell's simulated statistics.
type goldenSet map[string]map[string]map[string]string

func loadGolden() (goldenSet, error) {
	var g goldenSet
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden/seed1.json: %w", err)
	}
	return g, nil
}

func scaleName(smoke bool) string {
	if smoke {
		return "smoke"
	}
	return "full"
}

// lookup returns what the golden says the cell's statistics are. checked
// is false when this run has no golden to answer to; a cell the golden
// lacks reads as "", which no cell produces, so it fails.
func (g goldenSet) lookup(cfg runConfig, cell string) (want string, checked bool) {
	if cfg.seed != goldenSeed || g == nil {
		return "", false
	}
	return g[scaleName(cfg.smoke)][cfg.workload][cell], true
}

// updateGolden runs every workload once at both scales on the golden seed
// and rewrites golden/seed1.json under the current directory, which must be
// the bench source directory.
func updateGolden(cfg runConfig) error {
	path := filepath.Join("golden", "seed1.json")
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("run -update-golden from the bench directory: %w", err)
	}
	g := goldenSet{}
	for _, smoke := range []bool{false, true} {
		scale := scaleName(smoke)
		g[scale] = map[string]map[string]string{}
		for _, w := range workloads {
			cells, err := referenceCells(runConfig{workload: w.name, seed: goldenSeed, smoke: smoke, dir: cfg.dir, self: cfg.self})
			if err != nil {
				return err
			}
			g[scale][w.name] = cells
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// referenceCells sets a workload up, runs one pass and returns its cells'
// statistics.
func referenceCells(cfg runConfig) (map[string]string, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := w.setup(&env{seed: cfg.seed, smoke: cfg.smoke, dir: cfg.dir, self: cfg.self}); err != nil {
		return nil, err
	}
	cells := map[string]string{}
	for _, c := range runPass(w, "bare", 0, nil, nil).cells {
		if c.Err != "" {
			return nil, fmt.Errorf("%s/%s: %s", cfg.workload, c.Name, c.Err)
		}
		cells[c.Name] = c.Stats
	}
	return cells, nil
}
