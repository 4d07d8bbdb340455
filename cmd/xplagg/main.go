// Command xplagg is the fleet trace aggregator: a long-running daemon
// that accepts wire-format trace streams from many instrumented client
// processes at once (see the -stream option of cmd/xplacer and
// xplrt.EnableStream), keeps per-(tenant, process) shadow/heat-map/
// pattern state, and serves live snapshots over HTTP. Ingest is
// pipelined: connection goroutines only decode, and one apply worker per
// (tenant, process) drains a bounded queue, so the daemon scales with
// cores while preserving per-stream frame order.
//
// Usage:
//
//	xplagg -listen :9811 -http :9812          # daemon: TCP ingest + HTTP snapshots
//	xplagg -snapshot trace1.xplt trace2.xplt  # offline: ingest files, print reports
//
// HTTP endpoints (on -http):
//
//	/tenants    known (tenant, process) pairs and ingest totals (JSON)
//	/snapshot   ?tenant=T&process=P — diag.Report JSON, the same schema
//	            `xplacer -json` emits; at most -snapshot-stale old
//	            (&fresh=1 forces an exact snapshot). A finished stream's
//	            snapshot is the report of its last diagnostic point;
//	            concurrent streams under one (tenant, process) end each
//	            other's intervals
//	/perfetto   ?tenant=T&process=P — kernel spans as Chrome trace JSON
//	/metrics    Prometheus text-format counters (xplagg_*), including
//	            per-proc apply-queue depth and ingest stalls
//	/debug/pprof/   Go profiling endpoints, only with -pprof
//
// Positional arguments are trace files (captured with
// `-stream file:PATH`), ingested sequentially through the same decoder
// the TCP path uses before the listeners start.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
)

import "xplacer/internal/agg"

func main() {
	var (
		listen    = flag.String("listen", "", "accept client trace streams on this TCP address (e.g. :9811)")
		httpAddr  = flag.String("http", "", "serve snapshots and metrics on this HTTP address (e.g. :9812)")
		snapshot  = flag.Bool("snapshot", false, "after ingesting the trace-file arguments, print every proc's report JSON to stdout and exit")
		queue     = flag.Int("queue", agg.DefaultQueueDepth, "per-process apply queue depth (decoded frames buffered between a connection's decoder and the apply worker; full queues stall only that connection)")
		staleness = flag.Duration("snapshot-stale", agg.DefaultSnapshotMaxAge, "maximum age of the published snapshot /snapshot and /perfetto serve before rebuilding (the staleness bound; 0 rebuilds whenever ingest is ahead)")
		pprofOn   = flag.Bool("pprof", false, "expose Go profiling at /debug/pprof/ on the -http address")
	)
	flag.Parse()

	g := agg.New(agg.WithQueueDepth(*queue), agg.WithSnapshotMaxAge(*staleness))

	// File ingest first, sequentially: deterministic for goldens.
	for _, path := range flag.Args() {
		if err := g.IngestFile(path); err != nil {
			fatal(err)
		}
	}

	if *snapshot {
		for _, p := range g.Procs() {
			rep := p.Report()
			if err := rep.JSON(os.Stdout); err != nil {
				fatal(err)
			}
		}
		return
	}

	if *listen == "" && *httpAddr == "" {
		fatal(fmt.Errorf("nothing to do: pass -listen/-http for daemon mode, or -snapshot with trace files"))
	}

	errc := make(chan error, 2)
	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fatal(err)
		}
		h := g.Handler()
		if *pprofOn {
			// Profiling rides the same mux so ingest hot spots (decode,
			// apply workers, snapshot builds) are inspectable in production:
			//   go tool pprof http://host:port/debug/pprof/profile
			mux := http.NewServeMux()
			mux.Handle("/", h)
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			h = mux
		}
		fmt.Fprintf(os.Stderr, "xplagg: http on %s\n", hl.Addr())
		go func() { errc <- http.Serve(hl, h) }()
	}
	if *listen != "" {
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "xplagg: listening on %s\n", l.Addr())
		go func() {
			errc <- g.Serve(l, func(err error) {
				fmt.Fprintln(os.Stderr, "xplagg:", err)
			})
		}()
	}
	fatal(<-errc)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xplagg:", err)
	os.Exit(1)
}
