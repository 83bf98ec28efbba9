package bench

import (
	"math"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 2 3 4", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{10, 20})
	if q1 != 12.5 || med != 15 || q3 != 17.5 {
		t.Fatalf("quartiles = %v %v %v, want 12.5 15 17.5", q1, med, q3)
	}
}

// TestSummarizeTelemetryOverhead checks that each point is compared with
// its own query's off row, by medians, and marked within noise only when
// the loss is smaller than that off row's interquartile range.
func TestSummarizeTelemetryOverhead(t *testing.T) {
	points := []TelemetryPoint{
		{Query: "filter", Mode: "off"},
		{Query: "filter", Mode: "trace 0.01"},
		{Query: "filter", Mode: "trace 1.0"},
		{Query: "window", Mode: "off"},
		{Query: "window", Mode: "trace 1.0"},
	}
	samples := [][]float64{
		{90, 100, 110}, // median 100, IQR 10
		{95, 96, 97},   // -4%: inside the IQR
		{70, 80, 2000}, // -20%: an outlier round moves no median
		{50, 50, 50},   // IQR 0
		{49, 49, 49},
	}
	rows := summarizeTelemetryOverhead(points, samples)
	want := []struct {
		pct   float64
		noise bool
	}{{0, false}, {4, true}, {20, false}, {0, false}, {2, false}}
	for i, w := range want {
		if math.Abs(rows[i].OverheadPct-w.pct) > 1e-9 || rows[i].WithinNoise != w.noise {
			t.Errorf("%s %s: overhead %.2f%% within-noise %v, want %.2f%% %v",
				rows[i].Query, rows[i].Mode, rows[i].OverheadPct, rows[i].WithinNoise, w.pct, w.noise)
		}
	}
	out := FormatTelemetryOverhead(rows, 3)
	if !strings.Contains(out, "+4.0% (within noise)") || !strings.Contains(out, "+20.0%\n") {
		t.Fatalf("table misses the overhead column:\n%s", out)
	}
}
