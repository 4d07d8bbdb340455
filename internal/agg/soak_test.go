package agg_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xplacer/internal/agg"
	"xplacer/internal/apps/sw"
	"xplacer/internal/core"
	"xplacer/internal/machine"
	"xplacer/internal/wire"
)

// captureStream traces one small app run into a wire stream for the
// given (tenant, process) identity.
func captureStream(t *testing.T, tenant, process string) []byte {
	t.Helper()
	plat, err := machine.ByName("Intel+Pascal")
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSession(plat)
	if err != nil {
		t.Fatal(err)
	}
	var captured bytes.Buffer
	ss, err := wire.NewStreamSink(&captured, wire.Config{
		Hello: wire.Hello{Tenant: tenant, Process: process, Platform: plat.Name},
		Clock: s.Ctx.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Tracer.EnableStream(ss)
	if _, err := sw.Run(s, sw.Config{N: 24, M: 24, Seed: 1, Traceback: true}); err != nil {
		t.Fatal(err)
	}
	s.Tracer.Flush()
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	return captured.Bytes()
}

// TestSnapshotSoak hammers the HTTP surface while many streams ingest
// concurrently: 8 (tenant, process) streams re-ingest in a loop, and
// poller goroutines hit /snapshot, /perfetto, /tenants, and /metrics the
// whole time — some polls forcing exact snapshots. Every response must
// be well-formed, and with a short snapshot max-age no request may take
// pathologically long (a reader waits only for the frames and report
// builds holding its proc's lock, never for an ingest backlog). Run
// under -race in CI, this is the pin on the snapshot path's locking.
func TestSnapshotSoak(t *testing.T) {
	const streams = 8
	g := agg.New(agg.WithSnapshotMaxAge(50 * time.Millisecond))

	type ident struct{ tenant, process string }
	idents := make([]ident, streams)
	payloads := make([][]byte, streams)
	for i := range idents {
		idents[i] = ident{fmt.Sprintf("tenant%d", i%2), fmt.Sprintf("proc%d", i)}
		payloads[i] = captureStream(t, idents[i].tenant, idents[i].process)
		// One sequential ingest so every proc exists before the pollers
		// start (404s would vacuously pass the body checks).
		if err := g.Ingest(bytes.NewReader(payloads[i])); err != nil {
			t.Fatal(err)
		}
	}

	handler := g.Handler()
	get := func(path string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		return rec
	}

	stop := make(chan struct{})
	var ingesting sync.WaitGroup
	var rounds atomic.Int64
	for i := 0; i < streams; i++ {
		i := i
		ingesting.Add(1)
		go func() {
			defer ingesting.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := g.Ingest(bytes.NewReader(payloads[i])); err != nil {
					t.Error(err)
					return
				}
				rounds.Add(1)
			}
		}()
	}

	var polling sync.WaitGroup
	var polls atomic.Int64
	for w := 0; w < 4; w++ {
		w := w
		polling.Add(1)
		go func() {
			defer polling.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				id := idents[(w+n)%len(idents)]
				target := fmt.Sprintf("/snapshot?tenant=%s&process=%s", id.tenant, id.process)
				if n%7 == 0 {
					target += "&fresh=1" // exact path: built under the proc's lock
				}
				if n%3 == 1 {
					target = fmt.Sprintf("/perfetto?tenant=%s&process=%s", id.tenant, id.process)
				}
				start := time.Now()
				rec := get(target)
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d: %s", target, rec.Code, rec.Body.String())
					return
				}
				if !json.Valid(rec.Body.Bytes()) {
					t.Errorf("%s: malformed JSON mid-ingest", target)
					return
				}
				// Generous wall-clock bound: a stall-free snapshot must not
				// wait for the soak's whole ingest backlog.
				if d := time.Since(start); d > 10*time.Second {
					t.Errorf("%s took %v under ingest load", target, d)
					return
				}
				if rec := get("/tenants"); rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
					t.Errorf("/tenants: status %d, valid=%v", rec.Code, json.Valid(rec.Body.Bytes()))
					return
				}
				if rec := get("/metrics"); rec.Code != http.StatusOK ||
					!strings.Contains(rec.Body.String(), "xplagg_records_total") {
					t.Errorf("/metrics: status %d or missing counters", rec.Code)
					return
				}
				polls.Add(1)
			}
		}()
	}

	time.Sleep(1 * time.Second)
	close(stop)
	polling.Wait()
	ingesting.Wait()

	if rounds.Load() < int64(streams) || polls.Load() == 0 {
		t.Fatalf("soak did no work: %d ingest rounds, %d polls", rounds.Load(), polls.Load())
	}
	// Totals reflect every round that completed.
	_, _, batches, records, _, crcErrs, decodeErrs := g.Totals()
	if batches == 0 || records == 0 {
		t.Fatalf("no data applied: %d batches, %d records", batches, records)
	}
	if crcErrs != 0 || decodeErrs != 0 {
		t.Fatalf("soak hit %d checksum and %d decode errors", crcErrs, decodeErrs)
	}
	t.Logf("soak: %d ingest rounds, %d poll rounds, %d records applied",
		rounds.Load(), polls.Load(), records)
}
