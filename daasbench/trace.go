package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer,
// in memory, and writes them out when the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call: its name, when it ran relative to the start
// of the run, and the span that caused it (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span with the given ID.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func() error) error {
	id := t.start(name, parent)
	defer t.end(id)
	return fn()
}

// spanAgg is the per-name summary written beside the raw spans: total
// time, and self time (the part of that time no child span covers).
type spanAgg struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	Parents string  `json:"parent_names,omitempty"`
}

// aggregate sums spans by name. A span's self time is its duration
// minus the union of its children's intervals, so concurrent children
// (the two load generator connections) are not counted twice.
func (t *tracer) aggregate() []spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	childTime := make(map[int]int64, len(children))
	for id, ivs := range children {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		var covered, end int64
		for _, iv := range ivs {
			if iv[0] > end {
				end = iv[0]
			}
			if iv[1] > end {
				covered += iv[1] - end
				end = iv[1]
			}
		}
		childTime[id] = covered
	}
	byName := make(map[string]*spanAgg)
	parents := make(map[string]map[string]bool)
	for _, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &spanAgg{Name: s.Name}
			byName[s.Name] = a
			parents[s.Name] = make(map[string]bool)
		}
		d := s.End - s.Start
		a.Count++
		a.TotalS += float64(d) / 1e9
		a.SelfS += float64(d-childTime[s.ID]) / 1e9
		if s.Parent != 0 {
			parents[s.Name][t.spans[s.Parent-1].Name] = true
		}
	}
	out := make([]spanAgg, 0, len(byName))
	for name, a := range byName {
		var ps []string
		for p := range parents[name] {
			ps = append(ps, p)
		}
		sort.Strings(ps)
		for i, p := range ps {
			if i > 0 {
				a.Parents += ","
			}
			a.Parents += p
		}
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalS > out[j].TotalS })
	return out
}

// writeFile dumps the trace: per-name aggregates, every metric of the
// report, and the raw spans.
func (t *tracer) writeFile(path string, rep *report) error {
	type metricJSON struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	conv := func(ms []metric) []metricJSON {
		out := make([]metricJSON, len(ms))
		for i, m := range ms {
			out[i] = metricJSON{m.Name, m.Value, m.Unit}
		}
		return out
	}
	doc := struct {
		Workload string       `json:"workload"`
		Named    []metricJSON `json:"workload_metrics"`
		Layers   []metricJSON `json:"layer_metrics"`
		Agg      []spanAgg    `json:"span_summary"`
		Spans    []span       `json:"spans"`
	}{rep.Workload, conv(rep.Named), conv(rep.Layers), t.aggregate(), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
