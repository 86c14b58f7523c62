package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval: what ran, when, and the span that caused it.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the span list; -1 for the run span
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site. It is used
// from one goroutine at a time, except in mixed-os, where the reader owns a
// second tracer that is merged at the end.
type tracer struct {
	base  time.Time
	spans []span
	clock time.Duration // cost of one time.Now, calibrated at start
	reads int64         // clock reads made on behalf of tracing
}

func newTracer(base time.Time) *tracer {
	t := &tracer{base: base, spans: make([]span, 0, 1<<16)}
	const n = 20000
	d := make([]time.Duration, n)
	for i := range d {
		t0 := time.Now()
		d[i] = time.Since(t0)
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	t.clock = d[n/2]
	return t
}

func (t *tracer) now() int64 {
	t.reads++
	return int64(time.Since(t.base))
}

// begin opens a span under parent and returns its index, or -1 when
// tracing is off.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.now()
}

// merge appends another tracer's spans, re-parenting its roots under parent.
func (t *tracer) merge(o *tracer, parent int32) {
	if t == nil || o == nil {
		return
	}
	off := int32(len(t.spans))
	for _, s := range o.spans {
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
	t.reads += o.reads
}

// durations returns the lengths of every span called name, less the clock
// cost the two reads around it added.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)-float64(t.clock))
		}
	}
	return out
}

// sum returns the total length in seconds of the spans called name.
func (t *tracer) sum(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// traceFile is what -trace <file> writes.
type traceFile struct {
	RunID   string   `json:"run_id"`
	Host    hostInfo `json:"host"`
	ClockNs int64    `json:"clock_ns"`
	Spans   []span   `json:"spans"`
}

func (t *tracer) write(path, runID string, host hostInfo) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	err = json.NewEncoder(w).Encode(traceFile{RunID: runID, Host: host, ClockNs: int64(t.clock), Spans: t.spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
