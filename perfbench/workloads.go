package main

import (
	"fmt"
	"strings"

	"xplacer/internal/machine"
)

// workloadNames lists the workloads in the order README.md explains them.
var workloadNames = []string{"lulesh-scalar", "rodinia-range", "fleet-ingest", "plaingo-scoped"}

func workloadList() string { return strings.Join(workloadNames, ", ") }

// singleP reports whether a workload runs with GOMAXPROCS 1. The program
// workloads do their work on one goroutine, so a second P only lets the
// collector's workers, the what-if workers and idle spinning use the
// other vCPU, and their timings then also follow how busy that vCPU's
// host is. fleet-ingest keeps every CPU: decode and apply are a
// two-goroutine pipeline.
func singleP(name string) bool { return name != "fleet-ingest" }

func validWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// newWorkload generates a workload's inputs from the seed and builds its
// references.
func newWorkload(cfg runConfig) (workload, error) {
	switch cfg.workload {
	case "lulesh-scalar":
		return &simWL{apps: []app{luleshApp(cfg.sizes, 1)}, plat: machine.IntelPascal()}, nil
	case "rodinia-range":
		return &simWL{apps: rodiniaApps(cfg.sizes, cfg.seed, true), full: true, plat: machine.IntelPascal()}, nil
	case "fleet-ingest":
		return newFleet(cfg.sizes, cfg.seed)
	case "plaingo-scoped":
		return newPlaingo(cfg.sizes, cfg.seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}
