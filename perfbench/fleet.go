package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xplacer/internal/agg"
	"xplacer/internal/core"
	"xplacer/internal/detect"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/record"
	"xplacer/internal/shadow"
	"xplacer/internal/wire"
)

// stream is one captured client process of the fleet.
type stream struct {
	hello wire.Hello
	data  []byte
	sent  int64  // access records the client sent (its bye total)
	ref   []byte // the in-process report JSON the aggregated one must equal
}

func (s *stream) key() string { return s.hello.Tenant + "/" + s.hello.Process }

// pollsPerRound sets the /snapshot poller's rate: a polled round spaces
// its requests so that this many fit in the latest unpolled round. At the
// published-snapshot service time measured on a 2-vCPU Xeon VM (mean over
// the polled procs 0.27-0.41 ms, rounds 270-340 ms) that keeps about a
// tenth of one CPU busy. Because the interval follows the rounds, a
// slower moment of the machine stretches both together, and every round
// sees about the same number of requests.
const pollsPerRound = 100

// snapshotReq is one /snapshot request of a polled round: the stream
// whose proc it read, its latency from when it was due, and how late it
// was sent.
type snapshotReq struct {
	proc      int
	lat, late time.Duration
}

// fleetWL is fleet-ingest: set-up captures one wire stream per app (the
// six Rodinia apps, then LULESH without intermediate diagnostics), each a
// distinct (tenant, process), together with the in-process reference
// report of the same run. A round ingests every stream in that order into
// a fresh aggregator and then checks each proc's exact report against its
// reference. The measured side polls /snapshot of the procs whose streams
// are fully ingested while the rest are ingested; the twin round does not
// poll. LULESH's stream is most of the bytes, so it goes last and the
// poller runs for most of the round.
type fleetWL struct {
	streams []stream
	// lastTwin is the latest unpolled round's duration, which sets the
	// poller's interval (see pollsPerRound); until the first one the
	// measured side does not poll.
	lastTwin time.Duration
	recs     int64
	caps     []*capture // the streams decoded for the layer ladder
	elems    int64
}

func newFleet(sz sizes, seed int64) (*fleetWL, error) {
	plat := machine.IntelPascal()
	w := &fleetWL{}
	apps := append(rodiniaApps(sz, seed, false), luleshApp(sz, 0))
	for i, a := range apps {
		st, err := capture1(plat, a, wire.Hello{Tenant: fmt.Sprintf("tenant%d", i), Process: a.name, Platform: plat.Name})
		if err != nil {
			return nil, err
		}
		w.streams = append(w.streams, st)
		w.recs += st.sent
	}
	return w, nil
}

// capture1 runs one app traced with the heat-map and pattern sinks and a
// wire.StreamSink attached, and returns the captured stream with the
// in-process report assembled the way the aggregator builds its own
// (summaries, findings, heat map, patterns; no timeline attribution).
func capture1(plat *machine.Platform, a app, hello wire.Hello) (stream, error) {
	s, err := core.NewSession(plat)
	if err != nil {
		return stream{}, err
	}
	hm := record.NewHeatmapSink(s.Tracer.Table())
	s.Tracer.AddSink(hm)
	ps := s.Tracer.EnablePatterns(s.Ctx.Now)
	var buf bytes.Buffer
	ss, err := wire.NewStreamSink(&buf, wire.Config{Hello: hello, Clock: s.Ctx.Now})
	if err != nil {
		return stream{}, err
	}
	s.Tracer.EnableStream(ss)
	if _, err := a.run(s); err != nil {
		return stream{}, fmt.Errorf("%s: %w", a.name, err)
	}
	s.Tracer.Flush()
	if err := ss.Close(); err != nil {
		return stream{}, fmt.Errorf("%s: closing the stream: %w", a.name, err)
	}
	if segs, recs, _ := ss.Dropped(); segs != 0 {
		return stream{}, fmt.Errorf("%s: block-policy stream dropped %d records", a.name, recs)
	}
	_, sent := ss.Counts()

	table := s.Tracer.Table()
	r := diag.Report{Title: hello.Tenant + "/" + hello.Process}
	for _, e := range table.Entries() {
		r.Allocs = append(r.Allocs, diag.Summarize(e))
	}
	r.Findings = detect.Scan(table.Entries(), detect.DefaultOptions())
	r.Heatmap = diag.SummarizeHeatmap(hm, 64)
	r.Patterns = diag.SummarizePatterns(ps, plat.CoalescePenaltyPct)
	r.Patterns.AnnotateHeatmap(r.Heatmap)
	var ref bytes.Buffer
	if err := r.JSON(&ref); err != nil {
		return stream{}, err
	}
	return stream{hello: hello, data: buf.Bytes(), sent: sent, ref: ref.Bytes()}, nil
}

// endToEnd reads two rounds of each pair: op_p50_ms and alloc_mb_per_op
// are the unpolled round, records_per_s the polled one, and overhead_x
// their ratio. The polled round's allocation grows with its request
// count, which the benchmark sets, not the program.
// snapshot_p50_ms is the mean over the polled procs of each proc's
// median latency: the procs' reports differ in size by almost two
// orders of magnitude, so a median over all requests would sit on the
// step between two procs' latencies.
func (w *fleetWL) endToEnd(p *pairs) map[string]float64 {
	rps := make([]float64, len(p.mMs))
	for i, m := range p.mMs {
		rps[i] = float64(w.recs) / m * 1e3
	}
	return map[string]float64{
		"op_p50_ms":       median(p.tMs),
		"overhead_x":      median(p.ratio),
		"records_per_s":   median(rps),
		"snapshot_p50_ms": procMedianMean(p.snaps, func(s snapshotReq) time.Duration { return s.lat }),
		"alloc_mb_per_op": median(p.tAlloc),
	}
}

// procMedianMean is the mean over procs of the median of f over each
// proc's requests.
func procMedianMean(reqs []snapshotReq, f func(snapshotReq) time.Duration) float64 {
	by := map[int][]float64{}
	for _, s := range reqs {
		by[s.proc] = append(by[s.proc], ms(f(s)))
	}
	mean := 0.0
	for _, xs := range by {
		mean += median(xs) / float64(len(by))
	}
	return mean
}

// layers adds nothing: no simulator runs in a round.
func (w *fleetWL) layers(_, _ *pairs) sample { return nil }

// prepare decodes every stream once for the layer ladder before the
// first traced round.
func (w *fleetWL) prepare(traced bool) error {
	if !traced || w.caps != nil {
		return nil
	}
	for i := range w.streams {
		c := &capture{}
		h := wire.Handler{
			Batch: func(b []shadow.Access) {
				c.batches = append(c.batches, append([]shadow.Access(nil), b...))
				for j := range b {
					w.elems += b[j].Elems()
				}
			},
			Span: func(name string, _ machine.Duration) {
				c.marks = append(c.marks, spanMark{at: len(c.batches), name: name})
			},
			Alloc: func(a wire.AllocInfo) { c.allocs = append(c.allocs, a) },
		}
		err := wire.ReadStream(bytes.NewReader(w.streams[i].data), wire.StreamHandler{
			Hello: func(wire.Hello) (wire.Handler, error) { return h, nil },
		})
		if err != nil {
			return fmt.Errorf("decoding %s: %w", w.streams[i].key(), err)
		}
		w.caps = append(w.caps, c)
	}
	return nil
}

func (w *fleetWL) measured(tr *tracer) (*opOut, error) { return w.round(true, tr) }
func (w *fleetWL) twin() (*opOut, error)               { return w.round(false, nil) }

// fleetOut is one round's outcome: what the checks found, and the exact
// report JSON of every proc.
type fleetOut struct {
	// g keeps the aggregator's per-proc state referenced until the op's
	// live heap is read.
	g        *agg.Aggregator
	problems []string
	reports  [][]byte
}

// round ingests every stream, in order, into a fresh aggregator from the
// calling goroutine, with at most one more goroutine polling; it ends
// when every proc's exact report is built and checked.
func (w *fleetWL) round(polled bool, tr *tracer) (*opOut, error) {
	g := agg.New()
	defer g.Close()
	out := &opOut{}
	res := &fleetOut{g: g}
	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		pollErrs []string
		ingested atomic.Int32 // streams fully ingested so far
	)
	if every := w.lastTwin / pollsPerRound; polled && every > 0 {
		wg.Add(1)
		parent := tr.current()
		go func() {
			defer wg.Done()
			pollErrs = w.poll(g, every, &ingested, stop, out, tr, parent)
		}()
	}
	t0 := time.Now()
	for i := range w.streams {
		st := &w.streams[i]
		var err error
		spanned(tr, "agg.ingest", func() { err = g.Ingest(bytes.NewReader(st.data)) })
		if err != nil {
			res.problems = append(res.problems, fmt.Sprintf("%s: ingest: %v", st.key(), err))
		}
		ingested.Add(1)
	}
	ingest := time.Since(t0)
	close(stop)
	wg.Wait()
	res.problems = append(res.problems, pollErrs...)

	var findings int
	for i := range w.streams {
		st := &w.streams[i]
		p := g.Find(st.hello.Tenant, st.hello.Process)
		if p == nil {
			res.problems = append(res.problems, st.key()+": no proc after ingest")
			continue
		}
		var rep diag.Report
		spanned(tr, "agg.report", func() { rep = p.Report() })
		var js bytes.Buffer
		var err error
		spanned(tr, "report.json", func() { err = rep.JSON(&js) })
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(js.Bytes(), st.ref) {
			res.problems = append(res.problems, st.key()+": exact report differs from the in-process reference")
		}
		_, records, _, dropped := p.Stats()
		if records != st.sent {
			res.problems = append(res.problems, fmt.Sprintf("%s: applied %d records, the client sent %d", st.key(), records, st.sent))
		}
		if dropped != 0 {
			res.problems = append(res.problems, fmt.Sprintf("%s: the client reported %d dropped records", st.key(), dropped))
		}
		res.reports = append(res.reports, js.Bytes())
		findings += len(rep.Findings)
	}
	_, _, _, _, _, crcErrs, decErrs := g.Totals()
	if crcErrs != 0 || decErrs != 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d checksum and %d decode errors", crcErrs, decErrs))
	}
	if !polled {
		w.lastTwin = time.Since(t0)
	}
	out.data = res
	if tr != nil {
		served, builds := g.SnapshotStats()
		var stalls int64
		for _, p := range g.Procs() {
			_, _, s := p.QueueStats()
			stalls += s
		}
		l := sample{
			"agg.ingest_ms":       ms(ingest),
			"agg.stalls":          float64(stalls),
			"agg.report_ms":       tr.opTotal("agg.report"),
			"agg.snapshot_builds": float64(builds),
			"agg.decode_errors":   float64(crcErrs + decErrs),
			"diag.findings":       float64(findings),
			"_n_scalar":           0,
			"_n_range":            0,
			"_n_decode":           float64(w.recs),
			"_elems":              float64(w.elems),
			"_all_sinks":          1,
		}
		if n := len(out.snaps); n > 0 {
			l["agg.snapshot_hit_ratio"] = float64(served) / float64(n)
		}
		l["_analysis_ms"] = l["agg.report_ms"] + tr.opTotal("report.json")
		out.layers = l
		out.captures = w.caps
	}
	return out, nil
}

// getSnapshot requests one proc's /snapshot through the aggregator's
// handler and checks that a JSON report came back.
func getSnapshot(h http.Handler, id wire.Hello) error {
	req := httptest.NewRequest(http.MethodGet, "/snapshot?tenant="+url.QueryEscape(id.Tenant)+"&process="+url.QueryEscape(id.Process), nil)
	rw := &discardResponse{header: http.Header{}}
	h.ServeHTTP(rw, req)
	if rw.code != http.StatusOK || rw.first != '{' {
		return fmt.Errorf("/snapshot for %s/%s: status %d, %d body bytes", id.Tenant, id.Process, rw.code, rw.n)
	}
	return nil
}

// discardResponse is the http.ResponseWriter getSnapshot hands the
// handler. Like a socket, it keeps no body: only the status, the body's
// first byte and its length. A recorder would grow a buffer to each
// report's size, up to hundreds of KB per request, and time that too.
type discardResponse struct {
	header http.Header
	code   int
	first  byte
	n      int
}

func (d *discardResponse) Header() http.Header { return d.header }

func (d *discardResponse) WriteHeader(code int) {
	if d.code == 0 {
		d.code = code
	}
}

func (d *discardResponse) Write(b []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	if d.n == 0 && len(b) > 0 {
		d.first = b[0]
	}
	d.n += len(b)
	return len(b), nil
}

// poll requests /snapshot on an open-loop schedule, one request due
// every interval, round-robin over the procs whose streams are fully
// ingested. Each latency is timed from when the request was due, so a
// slow request also counts against the requests queued behind it.
func (w *fleetWL) poll(g *agg.Aggregator, every time.Duration, ingested *atomic.Int32, stop <-chan struct{}, out *opOut, tr *tracer, parent int) []string {
	var problems []string
	h := g.Handler()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	start := time.Now()
	for k, rr := 0, 0; ; k++ {
		due := start.Add(time.Duration(k) * every)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				timer.Stop()
				return problems
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return problems
			default:
			}
		}
		n := int(ingested.Load())
		if n == 0 {
			continue
		}
		i := rr % n
		rr++
		sent := time.Now()
		if err := getSnapshot(h, w.streams[i].hello); err != nil {
			problems = append(problems, err.Error())
		}
		done := time.Now()
		out.snaps = append(out.snaps, snapshotReq{proc: i, lat: done.Sub(due), late: sent.Sub(due)})
		tr.add("agg.snapshot", parent, sent, done)
	}
}

func (w *fleetWL) check(m, t *opOut) (string, error) {
	h := sha256.New()
	for _, o := range []*opOut{m, t} {
		res := o.data.(*fleetOut)
		if len(res.problems) > 0 {
			return "", fmt.Errorf("fleet round: %s", strings.Join(res.problems, "; "))
		}
	}
	for _, r := range m.data.(*fleetOut).reports {
		h.Write(r)
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}
