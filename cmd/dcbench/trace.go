package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run: a client call, a replayed
// layer call, or a stage of the offline pipeline. Spans of one request
// share Request; Parent names the enclosing span's ID (0 = none).
type span struct {
	ID      int64     `json:"id"`
	Parent  int64     `json:"parent,omitempty"`
	Request int64     `json:"request,omitempty"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays for no span.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	nextID int64
}

func (t *tracer) addAll(ss []span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i := range ss {
		t.nextID++
		ss[i].ID = t.nextID
	}
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// reserve hands out a span ID before the span is opened, so that children
// can name a parent that closes after them. 0 on a nil tracer.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// begin opens a span under parent (0 = none); the returned func closes it.
// On a nil tracer both do nothing.
func (t *tracer) begin(name string, parent, request int64) func() {
	return t.beginAs(t.reserve(), name, parent, request)
}

// beginAs is begin with an ID from reserve.
func (t *tracer) beginAs(id int64, name string, parent, request int64) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

// stat is the count, median and mean of one span name's durations.
type stat struct {
	n            int
	median, mean time.Duration
}

func (t *tracer) stat(name string) stat {
	if t == nil {
		return stat{}
	}
	t.mu.Lock()
	var ds []time.Duration
	var sum time.Duration
	for i := range t.spans {
		if t.spans[i].Name == name {
			d := t.spans[i].End.Sub(t.spans[i].Start)
			ds = append(ds, d)
			sum += d
		}
	}
	t.mu.Unlock()
	if len(ds) == 0 {
		return stat{}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return stat{n: len(ds), median: ds[len(ds)/2], mean: sum / time.Duration(len(ds))}
}

// writeFile writes the spans, ordered by start time, as one JSON document.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
