package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"rollrec/internal/trace"
)

// eventKinds are the runtimes' structured event kinds, in the order the
// trace package declares them.
var eventKinds = []string{
	trace.EvCrash, trace.EvDown, trace.EvRestart,
	trace.EvSend, trace.EvRecv,
	trace.EvStorageRead, trace.EvStorageWrite,
	trace.EvRestore, trace.EvAnnounce, trace.EvWaiting, trace.EvGather,
	trace.EvGatherAbort, trace.EvReplay, trace.EvBlocked, trace.EvCheckpoint,
	trace.EvOutputCommit,
}

// spanKinds are the kinds recorded as spans, whose virtual time is summed.
var spanKinds = []string{
	trace.EvDown, trace.EvStorageRead, trace.EvStorageWrite, trace.EvRestore,
	trace.EvWaiting, trace.EvGather, trace.EvReplay, trace.EvBlocked,
	trace.EvCheckpoint, trace.EvOutputCommit,
}

// kindTracer counts the structured events of one run per kind and sums
// the virtual time their spans cover. It is attached through the
// cluster's Tracer hook and is safe for concurrent use, because the
// sharded kernel calls it from its shard goroutines.
type kindTracer struct {
	mu    sync.Mutex
	count map[string]int64
	vtime map[string]int64 // virtual ns
	open  map[trace.SpanRef]openSpan
	next  trace.SpanRef
}

type openSpan struct {
	name string
	ts   int64
}

var _ trace.Tracer = (*kindTracer)(nil)

func newKindTracer() *kindTracer {
	return &kindTracer{
		count: map[string]int64{},
		vtime: map[string]int64{},
		open:  map[trace.SpanRef]openSpan{},
	}
}

func (t *kindTracer) Enabled() bool { return true }

func (t *kindTracer) Instant(ts int64, proc int32, name string, tag trace.Tag) {
	t.mu.Lock()
	t.count[name]++
	t.mu.Unlock()
}

func (t *kindTracer) Begin(ts int64, proc int32, name string, tag trace.Tag) trace.SpanRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count[name]++
	t.next++
	t.open[t.next] = openSpan{name: name, ts: ts}
	return t.next
}

func (t *kindTracer) End(ref trace.SpanRef, ts int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.open[ref]; ok {
		t.vtime[s.name] += ts - s.ts
		delete(t.open, ref)
	}
}

func (t *kindTracer) Span(ts, dur int64, proc int32, name string, tag trace.Tag) {
	t.mu.Lock()
	t.count[name]++
	t.vtime[name] += dur
	t.mu.Unlock()
}

// metricName turns an event kind into a metric-name fragment.
func metricName(kind string) string { return strings.ReplaceAll(kind, "-", "_") }

// hostSpan is one host-time span around a call the benchmark makes.
type hostSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// spanLog keeps the traced run's host spans in memory. A nil *spanLog
// records nothing, so untraced runs pay only the nil check.
type spanLog struct {
	t0    time.Time
	spans []hostSpan
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, hostSpan{
		ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(l.t0).Nanoseconds(),
	})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	s := &l.spans[id-1]
	s.Dur = time.Since(l.t0).Nanoseconds() - s.Start
}

// traceFile is what a traced run writes once, at its end.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Spans    []hostSpan           `json:"spans"`
	Events   map[string]kindTotal `json:"events"`
}

type kindTotal struct {
	Count   int64   `json:"count"`
	VTimeMS float64 `json:"vtime_ms"`
}

func writeTrace(dir string, f traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	blob, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, f.Workload+"-seed"+strconv.FormatInt(f.Seed, 10)+".json")
	return path, os.WriteFile(path, append(blob, '\n'), 0o644)
}
