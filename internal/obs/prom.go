package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromWriter renders the Prometheus text exposition format (version
// 0.0.4, what a Prometheus scraper and promtool accept). It is a thin
// stateful writer: open a metric family with Family, then emit its series
// with Sample; the first error sticks and is returned by Err.
//
// The stdlib has no Prometheus client and this repo takes no
// dependencies, so soimapd renders its counters, gauges and histograms
// through this writer at /metrics.
type PromWriter struct {
	w      io.Writer
	err    error
	opened map[string]bool
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, opened: make(map[string]bool)}
}

// ContentType is the HTTP Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Err returns the first write error.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Family emits the HELP/TYPE header for a metric family. typ is
// "counter", "gauge" or "histogram". Re-opening an already-open family is
// a no-op so callers can interleave per-label emission loops.
func (p *PromWriter) Family(name, typ, help string) {
	if p.opened[name] {
		return
	}
	p.opened[name] = true
	if help != "" {
		p.printf("# HELP %s %s\n", name, escapeHelp(help))
	}
	p.printf("# TYPE %s %s\n", name, typ)
}

// Sample emits one series of the most recently opened family. labels is
// a flat key, value, key, value... list; an odd trailing key is dropped.
func (p *PromWriter) Sample(name string, value float64, labels ...string) {
	p.printf("%s%s %s\n", name, renderLabels(labels), formatValue(value))
}

// Histogram emits a full fixed-bucket histogram family entry: cumulative
// _bucket series per upper bound (plus +Inf), then _sum and _count.
// bounds and counts are parallel; counts must have one extra overflow
// slot. baseLabels apply to every series.
func (p *PromWriter) Histogram(name string, bounds []int64, counts []int64, sum float64, count int64, baseLabels ...string) {
	cum := int64(0)
	for i, b := range bounds {
		cum += counts[i]
		p.Sample(name+"_bucket", float64(cum), append(append([]string{}, baseLabels...), "le", strconv.FormatInt(b, 10))...)
	}
	if len(counts) > len(bounds) {
		cum += counts[len(bounds)]
	}
	p.Sample(name+"_bucket", float64(cum), append(append([]string{}, baseLabels...), "le", "+Inf")...)
	p.Sample(name+"_sum", sum, baseLabels...)
	p.Sample(name+"_count", float64(count), baseLabels...)
}

func renderLabels(labels []string) string {
	if len(labels) < 2 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q produces exactly the exposition format's label escaping
		// (backslash, quote and newline).
		fmt.Fprintf(&b, `%s=%q`, labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// SortedKeys returns m's keys sorted, the deterministic iteration order
// every /metrics render uses (scrapes must be stable for golden tests and
// sane diffs).
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
