package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"samzasql/internal/profile"
)

// TelemetryPoint is one (query, telemetry mode) point of the overhead
// sweep. The zero telemetry settings are the query's "off" baseline.
type TelemetryPoint struct {
	Query           string
	Mode            string
	TraceSampleRate float64
	ProfileInterval time.Duration
	ProfileWindow   time.Duration
}

// TelemetryOverheadPoints is the sweep: tracing at the recommended
// production rate and at every message on the stateless filter and the
// stateful sliding window, and the continuous profiler at its always-on
// default (1s interval, 200ms window — 20% CPU-sampling duty) and
// aggressive (window == interval — the CPU sampler never stops) on the
// filter. Each query has its own off row.
var TelemetryOverheadPoints = []TelemetryPoint{
	{Query: "filter", Mode: "off"},
	{Query: "filter", Mode: "trace 0.01", TraceSampleRate: 0.01},
	{Query: "filter", Mode: "trace 1.0", TraceSampleRate: 1},
	{Query: "filter", Mode: "profile default", ProfileInterval: profile.DefaultInterval, ProfileWindow: profile.DefaultWindow},
	{Query: "filter", Mode: "profile aggressive", ProfileInterval: 250 * time.Millisecond, ProfileWindow: 250 * time.Millisecond},
	{Query: "window", Mode: "off"},
	{Query: "window", Mode: "trace 0.01", TraceSampleRate: 0.01},
	{Query: "window", Mode: "trace 1.0", TraceSampleRate: 1},
}

// TelemetryOverheadRow summarizes one point's throughput over the rounds.
type TelemetryOverheadRow struct {
	TelemetryPoint
	// Q1, Median and Q3 are the quartiles of the per-round msg/s.
	Q1, Median, Q3 float64
	// OverheadPct is the loss of this point's median against the median
	// of its query's off row, in percent (0 for the off row itself).
	OverheadPct float64
	// WithinNoise is set when that loss is smaller in magnitude than the
	// off row's interquartile range.
	WithinNoise bool
}

// RunTelemetryOverhead runs every TelemetryOverheadPoints point once per
// round. The points interleave within each round, so drift in the machine's
// speed lands on every mode alike rather than on whichever ran last.
func RunTelemetryOverhead(messages, rounds int) ([]TelemetryOverheadRow, error) {
	if rounds < 1 {
		rounds = 1
	}
	samples := make([][]float64, len(TelemetryOverheadPoints))
	for r := 0; r < rounds; r++ {
		for i, pt := range TelemetryOverheadPoints {
			cfg := DefaultConfig()
			cfg.Messages = messages
			cfg.TraceSampleRate = pt.TraceSampleRate
			cfg.ProfileInterval = pt.ProfileInterval
			cfg.ProfileWindow = pt.ProfileWindow
			res, err := RunSQL(pt.Query, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: telemetry overhead %s %s: %w", pt.Query, pt.Mode, err)
			}
			samples[i] = append(samples[i], res.Throughput)
		}
	}
	return summarizeTelemetryOverhead(TelemetryOverheadPoints, samples), nil
}

// summarizeTelemetryOverhead turns per-point throughput samples into rows,
// comparing each point's median with the median of its query's off row.
func summarizeTelemetryOverhead(points []TelemetryPoint, samples [][]float64) []TelemetryOverheadRow {
	rows := make([]TelemetryOverheadRow, len(points))
	off := map[string]TelemetryOverheadRow{}
	for i, pt := range points {
		row := TelemetryOverheadRow{TelemetryPoint: pt}
		row.Q1, row.Median, row.Q3 = quartiles(samples[i])
		rows[i] = row
		if pt.Mode == "off" {
			off[pt.Query] = row
		}
	}
	for i := range rows {
		base, ok := off[rows[i].Query]
		if !ok || rows[i].Mode == "off" || base.Median <= 0 {
			continue
		}
		loss := base.Median - rows[i].Median
		rows[i].OverheadPct = loss / base.Median * 100
		rows[i].WithinNoise = math.Abs(loss) < base.Q3-base.Q1
	}
	return rows
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating linearly between order statistics.
func quartiles(xs []float64) (q1, median, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo == len(s)-1 {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// FormatTelemetryOverhead renders the sweep as an aligned table.
func FormatTelemetryOverhead(rows []TelemetryOverheadRow, rounds int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Telemetry overhead (SQL throughput over %d interleaved rounds, msg/s)\n", rounds)
	fmt.Fprintf(&b, "%-8s %-20s %12s %12s %12s  %s\n", "query", "mode", "q1", "median", "q3", "overhead of medians")
	for _, r := range rows {
		overhead := "baseline"
		if r.Mode != "off" {
			overhead = fmt.Sprintf("%+.1f%%", r.OverheadPct)
			if r.WithinNoise {
				overhead += " (within noise)"
			}
		}
		fmt.Fprintf(&b, "%-8s %-20s %12.0f %12.0f %12.0f  %s\n", r.Query, r.Mode, r.Q1, r.Median, r.Q3, overhead)
	}
	return b.String()
}
