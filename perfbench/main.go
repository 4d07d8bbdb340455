// Command perfbench is XPlacer-Go's end-to-end benchmark. It runs one
// workload for a fixed time and prints, as the last line of standard
// output, one JSON object with the correctness verdict, the ops attempted
// and failed, and the metrics:
//
//	perfbench -workload lulesh-scalar -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics, measured with benchmark
// tracing off. With -trace 1 it measures the same workload twice, first
// untraced and then with spans, a boundary wrapper and the layer ladder,
// and prints the per-layer metrics. README.md in this directory explains
// the workloads, the metrics and the steadiness measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+workloadList())
		seed    = flag.Int64("seed", 1, "input seed; every input is generated from it")
		seconds = flag.Float64("seconds", 10, "measuring time in seconds, after set-up")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics from a traced run")
		root    = flag.String("root", ".", "root of the repository checkout, for the provenance stamp and span output")
	)
	flag.Parse()
	if !validWorkload(*name) || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload "+workloadList()+", -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		sizes:    fullSizes,
	}
	if singleP(*name) {
		runtime.GOMAXPROCS(1)
	}
	prov := provenance(*root, *seed)
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pj)

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("digest %s seed=%d %s\n", cfg.workload, cfg.seed, res.digest)
	if cfg.traced {
		if err := writeSpans(*root, cfg, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		for _, line := range res.selfTimes {
			fmt.Println(line)
		}
	}
	out, err := json.Marshal(res.summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
