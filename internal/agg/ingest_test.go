package agg_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"xplacer/internal/agg"
	"xplacer/internal/wire"
)

// byeOf decodes a captured stream and returns its closing totals.
func byeOf(t *testing.T, stream []byte) wire.Bye {
	t.Helper()
	var bye wire.Bye
	err := wire.ReadStream(bytes.NewReader(stream), wire.StreamHandler{
		Hello: func(wire.Hello) (wire.Handler, error) { return wire.Handler{}, nil },
		Bye:   func(b wire.Bye) { bye = b },
	})
	if err != nil {
		t.Fatal(err)
	}
	return bye
}

// TestIngestAppliesBeforeReturn pins Ingest's contract: when it returns,
// every frame of the stream is applied, so the proc's counters already
// equal the client's bye totals without a Report in between.
func TestIngestAppliesBeforeReturn(t *testing.T) {
	stream := captureStream(t, "t", "sw")
	bye := byeOf(t, stream)
	g := agg.New()
	if err := g.Ingest(bytes.NewReader(stream)); err != nil {
		t.Fatal(err)
	}
	batches, records, streams, dropped := g.Find("t", "sw").Stats()
	if batches != bye.Batches || records != bye.Records || streams != 1 || dropped != bye.DroppedRecords {
		t.Fatalf("after Ingest: %d batches, %d records, %d streams, %d dropped; bye says %d batches, %d records, %d dropped",
			batches, records, streams, dropped, bye.Batches, bye.Records, bye.DroppedRecords)
	}
}

// TestConcurrentStreamsOneProc pins the proc lock's mutual exclusion:
// two streams under one (tenant, process) apply frame by frame into the
// same pipeline while exact snapshots are built from it. Under -race
// any unlocked access shows; every record of both streams must apply,
// and no frame may fail to decode.
func TestConcurrentStreamsOneProc(t *testing.T) {
	stream := captureStream(t, "t", "shared")
	bye := byeOf(t, stream)
	g := agg.New()
	h := g.Handler()
	// A stream that ends after its hello creates the proc, so exact
	// snapshots are served from before the first frame on.
	hello := wire.AppendSegment(wire.AppendHeader(nil), wire.SegHello,
		wire.AppendHello(nil, wire.Hello{Tenant: "t", Process: "shared", Platform: "Intel+Pascal"}))
	if err := g.Ingest(bytes.NewReader(hello)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	first := make(chan struct{})
	polled := make(chan int)
	go func() {
		n := 0
		defer func() {
			if n == 0 {
				close(first) // failed before the first snapshot
			}
			polled <- n
		}()
		for {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/snapshot?tenant=t&process=shared&fresh=1", nil))
			if rec.Code != http.StatusOK || !json.Valid(rec.Body.Bytes()) {
				t.Errorf("fresh snapshot: status %d, valid JSON %v", rec.Code, json.Valid(rec.Body.Bytes()))
				return
			}
			if n++; n == 1 {
				close(first)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-first
	var ingesting sync.WaitGroup
	for i := 0; i < 2; i++ {
		ingesting.Add(1)
		go func() {
			defer ingesting.Done()
			if err := g.Ingest(bytes.NewReader(stream)); err != nil {
				t.Error(err)
			}
		}()
	}
	ingesting.Wait()
	close(stop)
	t.Logf("%d fresh snapshots served", <-polled)

	_, records, streams, _ := g.Find("t", "shared").Stats()
	if records != 2*bye.Records || streams != 3 {
		t.Fatalf("applied %d records from %d streams, want %d from 3", records, streams, 2*bye.Records)
	}
	if _, _, _, _, _, crcErrs, decodeErrs := g.Totals(); crcErrs != 0 || decodeErrs != 0 {
		t.Fatalf("%d checksum and %d decode errors", crcErrs, decodeErrs)
	}
}
