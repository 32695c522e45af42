package main

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// runMeta is recorded in every result file: enough to tell whether two
// files may be compared.
type runMeta struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	CPUModel   string  `json:"cpu_model"`
	GOGC       int     `json:"gogc"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	MinOps     int     `json:"min_ops"`
	Time       string  `json:"time"`
}

func collectMeta(o options, e *env) runMeta {
	return runMeta{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    e.p,
		CPUModel:   cpuModel(),
		GOGC:       gogc(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Scale:      e.scale,
		MinOps:     e.minOps,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// commit names the measured source: git's HEAD, or "unknown" in a checkout
// that is not a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// gogc reports the GC target the run used.
func gogc() int {
	g := debug.SetGCPercent(100)
	debug.SetGCPercent(g)
	return g
}
