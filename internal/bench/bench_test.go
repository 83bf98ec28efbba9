package bench

import (
	"testing"
)

// smallConfig keeps unit-test runs quick; the figure benchmarks in the repo
// root use larger message counts.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Messages = 4000
	cfg.Partitions = 8
	return cfg
}

func TestNativeTasksProduceCorrectResults(t *testing.T) {
	for _, q := range []string{"filter", "project", "join", "window"} {
		res, err := RunNative(q, smallConfig())
		if err != nil {
			t.Fatalf("native %s: %v", q, err)
		}
		if res.Messages != 4000 || res.Throughput <= 0 {
			t.Fatalf("native %s result %+v", q, res)
		}
	}
}

func TestSQLTasksRun(t *testing.T) {
	for _, q := range []string{"filter", "project", "join", "window"} {
		res, err := RunSQL(q, smallConfig())
		if err != nil {
			t.Fatalf("samzasql %s: %v", q, err)
		}
		if res.Throughput <= 0 {
			t.Fatalf("samzasql %s result %+v", q, res)
		}
	}
}

func TestNativeAndSQLAgreeOnFilterOutput(t *testing.T) {
	// Correctness cross-check: run both and compare output counts.
	cfg := smallConfig()
	nat, err := RunNative("filter", cfg)
	if err != nil {
		t.Fatal(err)
	}
	sql, err := RunSQL("filter", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nat.Messages != sql.Messages {
		t.Fatalf("processed counts differ: %d vs %d", nat.Messages, sql.Messages)
	}
}

// TestFilterPerformanceShape checks the paper's Figure 5a shape: the SQL
// filter runs slower than the hand-written native job. One pair of runs
// spreads too widely to decide that (plain runs read ratios 0.55–0.94), so
// it decides on the median ratio over shapePairs interleaved native/SQL
// pairs, alternating which side runs first. It is skipped under the race
// detector: its instrumentation changes the two jobs' relative costs enough
// to invert the shape (isolated -race runs read ratios 0.88–1.21), so make
// ci runs this test in a plain, non-race step instead.
func TestFilterPerformanceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("perf shape check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("perf shape check skipped under the race detector, which inverts it")
	}
	const shapePairs = 7
	cfg := smallConfig()
	cfg.Messages = 30_000
	ratios := make([]float64, shapePairs)
	for i := range ratios {
		var nat, sql Result
		var err error
		for side := 0; side < 2; side++ {
			if (side+i)%2 == 0 {
				nat, err = RunNative("filter", cfg)
			} else {
				sql, err = RunSQL("filter", cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		ratios[i] = sql.Throughput / nat.Throughput
		t.Logf("pair %d: native %.0f msg/s, samzasql %.0f msg/s, ratio %.2f", i, nat.Throughput, sql.Throughput, ratios[i])
	}
	q1, ratio, q3 := quartiles(ratios)
	t.Logf("filter ratio over %d pairs: median %.2f (IQR %.2f–%.2f)", shapePairs, ratio, q1, q3)
	if ratio >= 1.0 {
		t.Errorf("SamzaSQL filter median ratio %.2f >= 1: faster than native; transformation overhead missing", ratio)
	}
}

func TestFigureSpecsComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range Figures {
		if _, ok := Queries[f.Query]; !ok {
			t.Errorf("figure %s references unknown query %q", f.ID, f.Query)
		}
		seen[f.ID] = true
	}
	for _, id := range []string{"5a", "5b", "5c", "6"} {
		if !seen[id] {
			t.Errorf("figure %s missing", id)
		}
	}
	if _, ok := FigureByID("5a"); !ok {
		t.Error("FigureByID(5a) failed")
	}
	if _, ok := FigureByID("nope"); ok {
		t.Error("FigureByID(nope) succeeded")
	}
}

func TestLOCTable(t *testing.T) {
	rows, err := LOCTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byQuery := map[string]LOCRow{}
	for _, r := range rows {
		byQuery[r.Query] = r
		if r.SQLLines <= 0 || r.TaskLines <= 0 {
			t.Fatalf("bad row %+v", r)
		}
		if r.SQLLines >= r.TaskLines {
			t.Errorf("%s: SQL (%d lines) not smaller than native (%d lines)", r.Query, r.SQLLines, r.TaskLines)
		}
	}
	// Paper ordering: window > join > filter/project in native size.
	if byQuery["window"].TaskLines <= byQuery["filter"].TaskLines {
		t.Errorf("window task (%d) should dwarf filter task (%d)",
			byQuery["window"].TaskLines, byQuery["filter"].TaskLines)
	}
	out := FormatLOC(rows)
	if !contains(out, "window") || !contains(out, "SQL lines") {
		t.Fatalf("table rendering: %s", out)
	}
}

func TestFormatFigure(t *testing.T) {
	spec, _ := FigureByID("5a")
	out := FormatFigure(spec, []FigureRow{{Containers: 1, Native: 1000, SQL: 650, Ratio: 0.65}})
	for _, want := range []string{"Figure 5a", "containers", "0.65x"} {
		if !contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCheckShape(t *testing.T) {
	spec, _ := FigureByID("5a")
	good := []FigureRow{{Containers: 1, Native: 1000, SQL: 650, Ratio: 0.65}}
	if v := CheckShape(spec, good); len(v) != 0 {
		t.Fatalf("good rows flagged: %v", v)
	}
	bad := []FigureRow{{Containers: 1, Native: 1000, SQL: 1000, Ratio: 1.0}}
	if v := CheckShape(spec, bad); len(v) == 0 {
		t.Fatal("parity rows not flagged for filter figure")
	}
	joinSpec, _ := FigureByID("5c")
	if v := CheckShape(joinSpec, []FigureRow{{Containers: 1, Ratio: 0.93}}); len(v) != 0 {
		t.Fatalf("join near-parity flagged: %v", v)
	}
	// The pre-vectorization gap (scalar per-probe relation reads) is now a
	// regression.
	if v := CheckShape(joinSpec, []FigureRow{{Containers: 1, Ratio: 0.5}}); len(v) == 0 {
		t.Fatal("join ratio 0.5 not flagged after vectorization")
	}
	winSpec, _ := FigureByID("6")
	if v := CheckShape(winSpec, []FigureRow{
		{Containers: 1, Ratio: 0.9, SQL: 200_000},
		{Containers: 2, Ratio: 2.5, SQL: 210_000},
	}); len(v) != 0 {
		t.Fatalf("window parity-or-better flagged: %v", v)
	}
	// The committed pre-vectorization x4 anomaly (ratio 0.48) is below the
	// new floor.
	if v := CheckShape(winSpec, []FigureRow{{Containers: 4, Ratio: 0.48, SQL: 150_000}}); len(v) == 0 {
		t.Fatal("window ratio 0.48 not flagged after vectorization")
	}
	// A SQL-side collapse at one sweep point fails even when each per-point
	// ratio stays inside the band.
	if v := CheckShape(winSpec, []FigureRow{
		{Containers: 1, Ratio: 1.2, SQL: 200_000},
		{Containers: 2, Ratio: 0.8, SQL: 90_000},
	}); len(v) == 0 {
		t.Fatal("window sweep collapse not flagged")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		// strings.Contains without importing strings twice in tests
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
