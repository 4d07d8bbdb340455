package agg

import (
	"encoding/json"
	"fmt"
	"net/http"

	"xplacer/internal/machine"
)

// Handler returns the aggregator's HTTP surface:
//
//	GET /tenants                              known (tenant, process) pairs + totals, JSON
//	GET /snapshot?tenant=T&process=P          diag.Report JSON (same schema as `xplacer -json`)
//	GET /perfetto?tenant=T&process=P          kernel spans as Chrome trace JSON (Perfetto-loadable)
//	GET /metrics                              Prometheus text format counters
//
// /snapshot and /perfetto serve the proc's published snapshot — at most
// the aggregator's snapshot max-age stale, exact when ingest is idle —
// without taking the proc's lock. Add &fresh=1 to force an exact
// snapshot: it locks the proc and builds the report between two frames,
// stalling that proc's ingest for one report build. A finished stream's
// snapshot is the report of its last diagnostic point; concurrent
// streams under one (tenant, process) end each other's intervals.
// /tenants and /metrics read atomic counters only.
func (g *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/tenants", g.serveTenants)
	mux.HandleFunc("/snapshot", g.serveSnapshot)
	mux.HandleFunc("/perfetto", g.servePerfetto)
	mux.HandleFunc("/metrics", g.serveMetrics)
	return mux
}

// lookup resolves the ?tenant=&process= pair, writing the HTTP error
// itself when the proc is unknown.
func (g *Aggregator) lookup(w http.ResponseWriter, r *http.Request) *Proc {
	tenant := r.URL.Query().Get("tenant")
	process := r.URL.Query().Get("process")
	p := g.Find(tenant, process)
	if p == nil {
		http.Error(w, fmt.Sprintf("no stream state for tenant %q process %q (see /tenants)", tenant, process), http.StatusNotFound)
		return nil
	}
	return p
}

// snapshotFor applies the freshness policy: published within the
// aggregator's max-age by default, exact under ?fresh=1.
func (g *Aggregator) snapshotFor(p *Proc, r *http.Request) *Snapshot {
	if r.URL.Query().Get("fresh") != "" {
		return p.fresh()
	}
	return p.Published(g.maxStale)
}

func (g *Aggregator) serveSnapshot(w http.ResponseWriter, r *http.Request) {
	p := g.lookup(w, r)
	if p == nil {
		return
	}
	s := g.snapshotFor(p, r)
	w.Header().Set("Content-Type", "application/json")
	if err := s.Report.JSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// tenantEntry is one /tenants row.
type tenantEntry struct {
	Tenant        string `json:"tenant"`
	Process       string `json:"process"`
	Platform      string `json:"platform,omitempty"`
	Streams       int64  `json:"streams"`
	Batches       int64  `json:"batches"`
	Records       int64  `json:"records"`
	IngestStalls  int64  `json:"ingest_stalls,omitempty"`
	ClientDropped int64  `json:"client_dropped_records,omitempty"`
}

func (g *Aggregator) serveTenants(w http.ResponseWriter, _ *http.Request) {
	out := []tenantEntry{}
	for _, p := range g.Procs() {
		batches, records, streams, dropped := p.Stats()
		out = append(out, tenantEntry{
			Tenant: p.Tenant, Process: p.Process, Platform: p.Platform,
			Streams: streams, Batches: batches, Records: records,
			IngestStalls: p.stalls.Load(), ClientDropped: dropped,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// servePerfetto renders the proc's kernel-launch spans as Chrome
// trace-format complete events — each span runs to the next span's start
// (the last to the snapshot's clock), mirroring how the client's kernels
// partitioned simulated time. Loadable in Perfetto / chrome://tracing.
func (g *Aggregator) servePerfetto(w http.ResponseWriter, r *http.Request) {
	p := g.lookup(w, r)
	if p == nil {
		return
	}
	s := g.snapshotFor(p, r)
	spans, end := s.Spans, s.Now

	type traceEvent struct {
		Name  string  `json:"name"`
		Phase string  `json:"ph"`
		TS    float64 `json:"ts"`
		Dur   float64 `json:"dur"`
		PID   string  `json:"pid"`
		TID   int     `json:"tid"`
	}
	usOf := func(d machine.Duration) float64 {
		return float64(d) / float64(machine.Nanosecond) / 1e3
	}
	events := []traceEvent{}
	for i, sp := range spans {
		until := end
		if i+1 < len(spans) {
			until = spans[i+1].Start
		}
		if until < sp.Start {
			until = sp.Start
		}
		events = append(events, traceEvent{
			Name: sp.Name, Phase: "X",
			TS: usOf(sp.Start), Dur: usOf(until - sp.Start),
			PID: p.Key(), TID: 0,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

// serveMetrics writes Prometheus text-format counters: global ingest
// totals plus per-proc applied records and batches, ingest stalls and
// client-reported drops. Each family is one group led by its HELP and
// TYPE lines, with one sample per proc. Reads atomics only — never a
// proc's lock — so it is stall-free in both directions.
func (g *Aggregator) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	streams, active, batches, records, bytes, crcErrs, decodeErrs := g.Totals()
	served, builds := g.SnapshotStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# HELP xplagg_streams_total Streams accepted since start.\n# TYPE xplagg_streams_total counter\nxplagg_streams_total %d\n", streams)
	fmt.Fprintf(w, "# HELP xplagg_streams_active Streams being decoded now.\n# TYPE xplagg_streams_active gauge\nxplagg_streams_active %d\n", active)
	fmt.Fprintf(w, "# HELP xplagg_batches_total Access batches applied.\n# TYPE xplagg_batches_total counter\nxplagg_batches_total %d\n", batches)
	fmt.Fprintf(w, "# HELP xplagg_records_total Access records applied.\n# TYPE xplagg_records_total counter\nxplagg_records_total %d\n", records)
	fmt.Fprintf(w, "# HELP xplagg_bytes_total Wire bytes consumed.\n# TYPE xplagg_bytes_total counter\nxplagg_bytes_total %d\n", bytes)
	fmt.Fprintf(w, "# HELP xplagg_checksum_errors_total Segments failing CRC.\n# TYPE xplagg_checksum_errors_total counter\nxplagg_checksum_errors_total %d\n", crcErrs)
	fmt.Fprintf(w, "# HELP xplagg_decode_errors_total Streams failing to decode.\n# TYPE xplagg_decode_errors_total counter\nxplagg_decode_errors_total %d\n", decodeErrs)
	fmt.Fprintf(w, "# HELP xplagg_snapshots_served_total Snapshot requests served from the published state.\n# TYPE xplagg_snapshots_served_total counter\nxplagg_snapshots_served_total %d\n", served)
	fmt.Fprintf(w, "# HELP xplagg_snapshot_builds_total Snapshot reports built: exact requests, and rebuilds of a published snapshot past its max age.\n# TYPE xplagg_snapshot_builds_total counter\nxplagg_snapshot_builds_total %d\n", builds)

	// Read each proc's counters once, so every family reports the same
	// reading.
	type procRow struct {
		p                                 *Proc
		batches, records, stalls, dropped int64
	}
	procs := g.Procs()
	rows := make([]procRow, len(procs))
	for i, p := range procs {
		r := &rows[i]
		r.p = p
		r.batches, r.records, _, r.dropped = p.Stats()
		r.stalls = p.stalls.Load()
	}
	for _, f := range []struct {
		name, typ, help string
		// sample returns a proc's value and whether the proc has a
		// sample in this family.
		sample func(r procRow) (v int64, ok bool)
	}{
		{"xplagg_proc_records_total", "counter", "Access records applied per process.",
			func(r procRow) (int64, bool) { return r.records, true }},
		{"xplagg_proc_batches_total", "counter", "Access batches applied per process.",
			func(r procRow) (int64, bool) { return r.batches, true }},
		{"xplagg_proc_ingest_stalls_total", "counter", "Frames per process that waited for the process's lock, held by another stream's frame or a snapshot build.",
			func(r procRow) (int64, bool) { return r.stalls, true }},
		{"xplagg_proc_client_dropped_records", "counter", "Records the process's clients reported dropping before the wire; no sample while zero.",
			func(r procRow) (int64, bool) { return r.dropped, r.dropped > 0 }},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, r := range rows {
			if v, ok := f.sample(r); ok {
				fmt.Fprintf(w, "%s{tenant=%q,process=%q} %d\n", f.name, r.p.Tenant, r.p.Process, v)
			}
		}
	}
}
