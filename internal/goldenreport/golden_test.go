// Package goldenreport pins the end-to-end output of every example
// program and of the CLI's JSON report against committed golden files, so
// that report drift — a changed cost model, a reordered finding, a
// renamed field — fails loudly instead of slipping through unit tests.
//
// Regenerate the goldens after an intentional change with:
//
//	go test ./internal/goldenreport -run Golden -update
package goldenreport

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the golden files")

// repoRoot walks up from the working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
}

// goTool skips the test when no go toolchain is on PATH (the harness
// shells out to `go run`).
func goTool(t *testing.T) string {
	t.Helper()
	p, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; skipping end-to-end goldens")
	}
	return p
}

// wallRE masks wall-clock durations; simulated times are deterministic
// and stay verbatim. No current example prints wall time, but the
// normalization keeps the goldens stable if one starts to.
var wallRE = regexp.MustCompile(`(?i)(wall[ -]?time[^0-9]*)[0-9][0-9a-zµ.]*`)

// maxKnownSchema is the newest report schema_version this harness knows
// how to normalize (see diag.SchemaVersion). Bumping the schema without
// teaching the harness fails loudly below, forcing the masking rules to
// be reviewed before the goldens are regenerated. v3's "adaptive" block
// carries only simulated times and counts, so it shares v1/v2's rules.
const maxKnownSchema = 3

// schemaVersionRE extracts the declared schema version from JSON reports;
// reports before v2 carried no version key (implicit v1).
var schemaVersionRE = regexp.MustCompile(`"schema_version":\s*(\d+)`)

func schemaVersion(b []byte) int {
	m := schemaVersionRE.FindSubmatch(b)
	if m == nil {
		return 1
	}
	v, err := strconv.Atoi(string(m[1]))
	if err != nil {
		return 1
	}
	return v
}

// normalizeReport is the version-aware entry point: it reads the schema
// version the output itself declares and applies that version's masking
// rules. v1 and v2 share them; future versions hook in here.
func normalizeReport(t *testing.T, b []byte) []byte {
	t.Helper()
	if v := schemaVersion(b); v > maxKnownSchema {
		t.Fatalf("report declares schema_version %d but the harness knows only v%d — review normalize() before regenerating goldens", v, maxKnownSchema)
	}
	return normalize(b)
}

// normalize makes captured output diffable across machines and runs:
// CRLF to LF, trailing whitespace stripped, wall-clock durations masked,
// exactly one trailing newline.
func normalize(b []byte) []byte {
	s := strings.ReplaceAll(string(b), "\r\n", "\n")
	s = wallRE.ReplaceAllString(s, "${1}<wall>")
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " \t")
	}
	s = strings.Join(lines, "\n")
	s = strings.TrimRight(s, "\n") + "\n"
	return []byte(s)
}

// runAndCompare executes args at the repo root and diffs normalized
// stdout against testdata/<name>.golden (or rewrites it under -update).
func runAndCompare(t *testing.T, name string, args ...string) {
	t.Helper()
	root := repoRoot(t)
	cmd := exec.Command(goTool(t), args...)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v: %v\nstderr:\n%s", args, err, stderr.String())
	}
	got := normalizeReport(t, stdout.Bytes())
	golden := filepath.Join(root, "internal", "goldenreport", "testdata", name+".golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s (re-run with -update if intentional):\n%s",
			golden, diffHint(string(want), string(got)))
	}
}

// diffHint renders the first few differing lines of want/got.
func diffHint(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  want: %s\n  got:  %s\n", i+1, wl, gl)
		if shown++; shown >= 8 {
			fmt.Fprintf(&b, "  … (further differences elided)\n")
			break
		}
	}
	return b.String()
}

// TestExampleGoldens runs every program under examples/ end-to-end and
// pins its full (normalized) stdout.
func TestExampleGoldens(t *testing.T) {
	root := repoRoot(t)
	entries, err := os.ReadDir(filepath.Join(root, "examples"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("no example programs found")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			runAndCompare(t, "example-"+name, "run", "./examples/"+name)
		})
	}
}

// TestReportJSONGoldens pins the CLI's machine-readable report — with the
// what-if analysis embedded — for both validation benchmarks, so the
// predictor's rankings are themselves regression-tested.
func TestReportJSONGoldens(t *testing.T) {
	cases := map[string][]string{
		"report-pathfinder": {"run", "./cmd/xplacer", "-app", "pathfinder",
			"-cols", "64", "-rows", "41", "-pyramid", "10", "-json", "-whatif"},
		"report-sw": {"run", "./cmd/xplacer", "-app", "sw",
			"-size", "24", "-json", "-whatif"},
		"report-backprop": {"run", "./cmd/xplacer", "-app", "backprop",
			"-size", "32", "-json", "-whatif"},
		"report-lud": {"run", "./cmd/xplacer", "-app", "lud",
			"-size", "24", "-json", "-whatif"},
		"report-nn": {"run", "./cmd/xplacer", "-app", "nn",
			"-size", "256", "-json", "-whatif"},
		"report-cfd": {"run", "./cmd/xplacer", "-app", "cfd",
			"-size", "64", "-json", "-whatif"},
		"report-gaussian": {"run", "./cmd/xplacer", "-app", "gaussian",
			"-size", "24", "-json", "-whatif"},
		// The -patterns runs pin the access-pattern classification block
		// (schema v2): per-span stream classes and per-alloc digests.
		"report-pathfinder-patterns": {"run", "./cmd/xplacer", "-app", "pathfinder",
			"-cols", "64", "-rows", "41", "-pyramid", "10", "-json", "-patterns"},
		"report-sw-patterns": {"run", "./cmd/xplacer", "-app", "sw",
			"-size", "24", "-json", "-patterns"},
		// The -heatmap runs pin the live heat map: rows annotated with
		// pattern classes, clock-rotated epochs, and temporaries freed
		// between mid-run diagnostics.
		"report-pathfinder-heatmap": {"run", "./cmd/xplacer", "-app", "pathfinder",
			"-cols", "64", "-rows", "41", "-pyramid", "10", "-json", "-heatmap", "-patterns"},
		"report-sw-heatmap-epoch": {"run", "./cmd/xplacer", "-app", "sw",
			"-size", "24", "-json", "-heatmap", "-heatmap-epoch", "50us"},
		"report-lulesh-heatmap": {"run", "./cmd/xplacer", "-app", "lulesh",
			"-size", "4", "-steps", "2", "-diag-every", "1", "-json", "-heatmap"},
		// The -adapt runs pin the controller's decision log (schema v3):
		// the multi-phase proxy where it re-places six allocations mid-run,
		// and pathfinder where a correctly quiet controller applies nothing.
		"report-lulesh-adapt": {"run", "./cmd/xplacer", "-app", "lulesh-mp",
			"-size", "65536", "-cycles", "2", "-steps", "10", "-analysis-steps", "4",
			"-adapt", "-adapt-window", "1ms", "-whatif-workers", "2", "-json"},
		"report-pathfinder-adapt": {"run", "./cmd/xplacer", "-app", "pathfinder",
			"-cols", "64", "-rows", "41", "-pyramid", "10", "-adapt", "-json"},
	}
	names := make([]string, 0, len(cases))
	for n := range cases {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			runAndCompare(t, name, cases[name]...)
		})
	}
}

// TestAggregatedReportGoldens pins the aggregator path end-to-end: the
// app streams its trace to a file with -stream file:PATH, xplagg
// -snapshot rebuilds shadow/heat-map/pattern state from the wire format
// and prints the report JSON, and that output is diffed against its own
// golden. The same goldens back the CI smoke job's TCP-ingest check —
// the /snapshot endpoint serves byte-identical JSON.
func TestAggregatedReportGoldens(t *testing.T) {
	root := repoRoot(t)
	cases := map[string][]string{
		"report-sw-aggregated": {"run", "./cmd/xplacer", "-app", "sw",
			"-size", "24", "-heatmap", "-patterns"},
		"report-pathfinder-aggregated": {"run", "./cmd/xplacer", "-app", "pathfinder",
			"-cols", "64", "-rows", "41", "-pyramid", "10", "-heatmap", "-patterns"},
	}
	names := make([]string, 0, len(cases))
	for n := range cases {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			trace := filepath.Join(t.TempDir(), "trace.xplt")
			record := exec.Command(goTool(t), append(cases[name], "-stream", "file:"+trace)...)
			record.Dir = root
			var stderr bytes.Buffer
			record.Stderr = &stderr
			if err := record.Run(); err != nil {
				t.Fatalf("record: %v\nstderr:\n%s", err, stderr.String())
			}
			snapshot := exec.Command(goTool(t), "run", "./cmd/xplagg", "-snapshot", trace)
			snapshot.Dir = root
			var stdout bytes.Buffer
			stderr.Reset()
			snapshot.Stdout = &stdout
			snapshot.Stderr = &stderr
			if err := snapshot.Run(); err != nil {
				t.Fatalf("snapshot: %v\nstderr:\n%s", err, stderr.String())
			}
			got := normalizeReport(t, stdout.Bytes())
			golden := filepath.Join(root, "internal", "goldenreport", "testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("aggregated report drifted from %s (re-run with -update if intentional):\n%s",
					golden, diffHint(string(want), string(got)))
			}
		})
	}
}

// TestSpillBudgetMatchesUnbounded pins the bounded-memory guarantee's
// other half: a run under a deliberately tiny -trace-budget, whose trace
// goes to a budgeted wire log that a fresh pipeline replays, must produce
// the exact same diagnostic JSON — heat map, pattern classes, findings,
// what-if — as the unbounded live-sink run. Next to -stream, the budget
// must not change the streamed trace file either.
func TestSpillBudgetMatchesUnbounded(t *testing.T) {
	root := repoRoot(t)
	cli := filepath.Join(t.TempDir(), "xplacer")
	build := exec.Command(goTool(t), "build", "-o", cli, "./cmd/xplacer")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cases := []struct {
		name   string
		args   []string
		stream bool
	}{
		{"sw", []string{"-app", "sw", "-size", "24", "-whatif"}, false},
		// Mid-run diagnostics drop the freed per-timestep temporaries from
		// the live table before the run ends; the replay must still
		// attribute their accesses.
		{"lulesh-diag-every", []string{"-app", "lulesh", "-size", "4", "-steps", "4", "-diag-every", "1"}, false},
		// Clock-rotated heat-map epochs close on the replayed stream clock.
		{"sw-heatmap-epoch", []string{"-app", "sw", "-size", "24", "-heatmap-epoch", "50us"}, false},
		{"sw-stream", []string{"-app", "sw", "-size", "24"}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			run := func(name string, extra ...string) (report, trace []byte) {
				args := append([]string{"-json", "-patterns", "-heatmap"}, c.args...)
				file := filepath.Join(dir, name+".xplt")
				if c.stream {
					args = append(args, "-stream", "file:"+file)
				}
				cmd := exec.Command(cli, append(args, extra...)...)
				var stdout, stderr bytes.Buffer
				cmd.Stdout = &stdout
				cmd.Stderr = &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v: %v\nstderr:\n%s", cmd.Args, err, stderr.String())
				}
				if c.stream {
					var err error
					if trace, err = os.ReadFile(file); err != nil {
						t.Fatal(err)
					}
				}
				return normalizeReport(t, stdout.Bytes()), trace
			}
			unbounded, unboundedTrace := run("unbounded")
			budgeted, budgetedTrace := run("budgeted", "-trace-budget", "4096")
			if !bytes.Equal(unbounded, budgeted) {
				t.Errorf("budgeted report drifted from the unbounded run:\n%s",
					diffHint(string(unbounded), string(budgeted)))
			}
			if !bytes.Equal(unboundedTrace, budgetedTrace) {
				t.Errorf("-stream trace file changed under -trace-budget (%d bytes, unbounded %d)",
					len(budgetedTrace), len(unboundedTrace))
			}
		})
	}
}
