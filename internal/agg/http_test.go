package agg

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xplacer/internal/wire"
)

// TestMetricsFamiliesGrouped checks the /metrics exposition against the
// Prometheus text format's grouping rule: every family is one contiguous
// block of sample lines, led by its HELP and TYPE lines. Two procs, one
// with client-reported drops, make the per-proc families multi-sample.
func TestMetricsFamiliesGrouped(t *testing.T) {
	g := New()
	g.proc(wire.Hello{Tenant: "t", Process: "a", Platform: "Intel+Pascal"})
	g.proc(wire.Hello{Tenant: "t", Process: "b", Platform: "Intel+Pascal"}).clientDropped.Add(7)

	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}

	type family struct {
		help, typ bool
		samples   int
	}
	families := map[string]*family{}
	var order []string // family of each block, in exposition order
	for _, line := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n") {
		var name string
		switch {
		case strings.HasPrefix(line, "# HELP "), strings.HasPrefix(line, "# TYPE "):
			name = strings.Fields(line)[2]
		default:
			name = line[:strings.IndexAny(line, "{ ")]
		}
		if len(order) == 0 || order[len(order)-1] != name {
			if families[name] != nil {
				t.Errorf("family %s is split into more than one group", name)
			}
			families[name] = &family{}
			order = append(order, name)
		}
		f := families[name]
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if f.typ || f.samples > 0 {
				t.Errorf("%s: HELP after TYPE or samples", name)
			}
			f.help = true
		case strings.HasPrefix(line, "# TYPE "):
			if f.samples > 0 {
				t.Errorf("%s: TYPE after samples", name)
			}
			f.typ = true
		default:
			f.samples++
		}
	}
	for name, f := range families {
		if !f.help || !f.typ {
			t.Errorf("%s: HELP %v, TYPE %v", name, f.help, f.typ)
		}
	}
	for name, want := range map[string]int{
		"xplagg_streams_total":               1,
		"xplagg_proc_records_total":          2,
		"xplagg_proc_batches_total":          2,
		"xplagg_proc_ingest_stalls_total":    2,
		"xplagg_proc_client_dropped_records": 1,
	} {
		if f := families[name]; f == nil || f.samples != want {
			t.Errorf("%s: %+v, want %d samples", name, f, want)
		}
	}
}
