package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"booters/internal/scenario"
)

// Workload shape constants. They are part of the benchmark's definition:
// changing one changes what every later run measures.
const (
	// liveRate is the open-loop packet rate the two sensors of the live
	// workloads offer together — well under the collector's capacity, so
	// freshness is governed by the pipeline's own seal cadence rather
	// than by box noise.
	liveRate = 50000
	// liveWeeks is the live scenario's span; the packets per week follow
	// from the run length. A long span seals many weeks per run (each a
	// freshness sample) and seals the model-fit windows, which lie in
	// the first 76 weeks, within the first fifth of the run, so most of
	// the dashboard's fits run on wholly sealed windows.
	liveWeeks = 400
	// replayWeeks and replayAttacks size the replay capture: about 0.95M
	// packets, under five seconds at replayRate, so one run holds
	// several replays.
	replayWeeks   = 104
	replayAttacks = 600
	// pktsPerAttackWeek is the scenario generator's packets per baseline
	// attack-week (attack flows, spray and scans together), measured on
	// the catalog's takedown fixtures; it converts a packet budget into
	// baseline_attacks.
	pktsPerAttackWeek = 17.3
)

// workload is one named traffic mix of the benchmark.
type workload struct {
	name     string
	scenario func(b *bench) scenarioConfig
	run      func(b *bench, in *input) (map[string]metric, error)
}

var workloads = map[string]*workload{
	"replay":    {name: "replay", scenario: replayScenario, run: runReplay},
	"live":      {name: "live", scenario: liveScenario, run: func(b *bench, in *input) (map[string]metric, error) { return runLive(b, in, false) }},
	"dashboard": {name: "dashboard", scenario: liveScenario, run: func(b *bench, in *input) (map[string]metric, error) { return runLive(b, in, true) }},
}

// scenarioConfig is the JSON scenario config bootergen -scenario reads
// (docs/SCENARIOS.md); only the fields the benchmark sets.
type scenarioConfig struct {
	Name            string     `json:"name"`
	Seed            int64      `json:"seed"`
	Start           string     `json:"start"`
	Weeks           int        `json:"weeks"`
	BaselineAttacks float64    `json:"baseline_attacks"`
	Noise           string     `json:"noise"`
	Takedowns       []takedown `json:"takedowns"`
}

type takedown struct {
	Name    string  `json:"name"`
	Week    int     `json:"week"`
	Weeks   int     `json:"weeks"`
	DropPct float64 `json:"drop_pct"`
}

// panelStart is where the collector's panel starts (booterserve -listen
// with -weeks), so every scenario starts there too.
var panelStart = time.Date(2018, time.January, 1, 0, 0, 0, 0, time.UTC)

func replayScenario(b *bench) scenarioConfig {
	return scenarioConfig{
		Name: "bench-replay", Seed: b.seed, Start: panelStart.Format(time.RFC3339),
		Weeks: replayWeeks, BaselineAttacks: replayAttacks, Noise: "poisson",
		Takedowns: []takedown{{Name: "Takedown", Week: 52, Weeks: 8, DropPct: 55}},
	}
}

// liveScenario sizes the live capture so that shipping it at liveRate
// takes about the run's --seconds.
func liveScenario(b *bench) scenarioConfig {
	packets := liveRate * b.seconds.Seconds()
	attacks := packets / (liveWeeks * pktsPerAttackWeek)
	return scenarioConfig{
		Name: "bench-live", Seed: b.seed, Start: panelStart.Format(time.RFC3339),
		Weeks: liveWeeks, BaselineAttacks: float64(int(attacks)), Noise: "poisson",
		Takedowns: []takedown{{Name: "Takedown", Week: 100, Weeks: 8, DropPct: 55}},
	}
}

// input is one generated, cached workload input: a zstd spool of the
// scenario's datagrams and the manifest that is its reference answer.
type input struct {
	dir      string
	manifest *scenario.Manifest
}

// buildBinaries builds the system under test from the checkout, before
// anything is timed.
func (b *bench) buildBinaries() error {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", b.binDir()+string(os.PathSeparator), "./cmd/booterserve", "./cmd/bootergen")
	cmd.Dir = b.root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return err
	}
	b.diag["build_s"] = time.Since(start).Seconds()
	return nil
}

func (b *bench) binDir() string { return filepath.Join(b.build, "bin") }

// inputs returns the cached input for cfg, generating it with bootergen
// on a miss. The cache is keyed by the config (seed included), so the
// same seed always gives the same input. Generation is never timed.
func (b *bench) inputs(cfg scenarioConfig) (*input, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	dir := filepath.Join(b.build, "inputs", cfg.Name+"-"+hex.EncodeToString(sum[:8]))
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		if err := b.generate(raw, dir); err != nil {
			return nil, err
		}
	}
	m, err := scenario.ReadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	return &input{dir: dir, manifest: m}, nil
}

// generate records the scenario into a temporary directory and renames
// it into place, so an interrupted generation never leaves a half input
// in the cache.
func (b *bench) generate(cfgJSON []byte, dir string) error {
	start := time.Now()
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	cfgPath := filepath.Join(tmp, "scenario.json")
	if err := os.WriteFile(cfgPath, cfgJSON, 0o644); err != nil {
		return err
	}
	spoolDir := filepath.Join(tmp, "spool")
	cmd := exec.Command(filepath.Join(b.binDir(), "bootergen"), "-scenario", cfgPath, "-record", spoolDir, "-compress", "zstd")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("bootergen: %w", err)
	}
	// The spool directory holds the segments and manifest.json; keep the
	// config beside them for the record.
	if err := os.Rename(cfgPath, filepath.Join(spoolDir, "scenario.json")); err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.Rename(spoolDir, dir); err != nil {
		return err
	}
	b.diag["generate_s"] = time.Since(start).Seconds()
	return os.RemoveAll(tmp)
}
