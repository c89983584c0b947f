package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one op share a trace id; nesting is recovered from
// the intervals (a span's parent is the innermost span of its trace that
// contains it), so recording sites need not know their caller.
type span struct {
	Trace      string
	Name       string
	Start, End time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced windows run.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(trace, name string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Trace: trace, Name: name, Start: start.Sub(r.epoch), End: end.Sub(r.epoch)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs f inside a span.
func (r *recorder) timed(trace, name string, f func() error) error {
	start := time.Now()
	err := f()
	r.add(trace, name, start, time.Now())
	return err
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its child spans (overlapping children are
// counted once).
func selfTimes(spans []span) []time.Duration {
	byTrace := map[string][]int{}
	for i, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], i)
	}
	self := make([]time.Duration, len(spans))
	for _, idx := range byTrace {
		// Outer spans sort before the spans they contain.
		sort.SliceStable(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.End > sb.End
		})
		children := map[int][]int{}
		var open []int
		for _, i := range idx {
			s := spans[i]
			for len(open) > 0 {
				top := spans[open[len(open)-1]]
				if top.Start <= s.Start && s.End <= top.End {
					break
				}
				open = open[:len(open)-1]
			}
			if len(open) > 0 {
				p := open[len(open)-1]
				children[p] = append(children[p], i)
			}
			open = append(open, i)
			self[i] = s.End - s.Start
		}
		for p, kids := range children {
			self[p] -= covered(spans, kids)
		}
	}
	return self
}

// covered is the length of the union of the given spans' intervals,
// which arrive sorted by start.
func covered(spans []span, idx []int) time.Duration {
	var total, curStart, curEnd time.Duration
	first := true
	for _, i := range idx {
		s := spans[i]
		if first || s.Start > curEnd {
			if !first {
				total += curEnd - curStart
			}
			curStart, curEnd, first = s.Start, s.End, false
			continue
		}
		if s.End > curEnd {
			curEnd = s.End
		}
	}
	if !first {
		total += curEnd - curStart
	}
	return total
}

// layerRow aggregates the spans of one layer name.
type layerRow struct {
	Name  string
	Count int
	Total time.Duration // summed inclusive durations
	Self  time.Duration // summed self times
}

// budget aggregates spans by layer name, in descending self time.
func budget(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += s.End - s.Start
		r.Self += self[i]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Self != out[b].Self {
			return out[a].Self > out[b].Self
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// row returns the named layer's aggregate (zero when absent).
func row(rows []layerRow, name string) layerRow {
	for _, r := range rows {
		if r.Name == name {
			return r
		}
	}
	return layerRow{Name: name}
}

// writeSpans writes the spans as Chrome trace-event JSON (loadable in
// Perfetto), one thread per op trace, plus the run's metadata.
func writeSpans(path string, spans []span, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tids := map[string]int{}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		tid, ok := tids[s.Trace]
		if !ok {
			tid = len(tids) + 1
			tids[s.Trace] = tid
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: tid,
			TS:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"trace": s.Trace},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "metadata": meta}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// printBudget renders the layer-budget table of a traced window: per-op
// self time of every layer, which sums to the traced ops' mean latency.
func printBudget(w io.Writer, rows []layerRow, ops int) time.Duration {
	var sum time.Duration
	fmt.Fprintf(w, "  %-26s %8s %12s %12s\n", "layer (span)", "calls", "self ms/op", "incl ms/op")
	for _, r := range rows {
		sum += r.Self
		fmt.Fprintf(w, "  %-26s %8d %12.4f %12.4f\n", r.Name, r.Count,
			msOf(r.Self)/float64(ops), msOf(r.Total)/float64(ops))
	}
	fmt.Fprintf(w, "  %-26s %8s %12.4f\n", "sum of self times", "", msOf(sum)/float64(ops))
	return sum
}
