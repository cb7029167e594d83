package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
)

// traceEvent is one Chrome trace-event record. Spans are written as
// nestable async events ("b"/"e") keyed by the sample's trace id, so
// overlapping samples of one tenant each get their own track and a
// sample's spans nest under its root.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // µs since the run's base
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes the samples of one traced pass as a Chrome
// trace-event file (open it in Perfetto or chrome://tracing). Each
// sample is one trace: a root span over the whole sample and one child
// span per layer, each child's parent being the span before it.
func writeTrace(path, workload string, tenants []string, samples []sample) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	events := []traceEvent{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": workload}}}
	for tid, name := range tenants {
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tid, Args: map[string]any{"name": name}})
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for i, s := range samples {
		id := i + 1
		root := id << 4
		add := func(name string, start, end int64, spanID, parent int) {
			args := map[string]any{"trace_id": id, "span_id": spanID}
			if parent != 0 {
				args["parent_id"] = parent
			} else {
				args["interval"] = s.interval
				args["freshness_ms"] = s.freshness()
			}
			events = append(events,
				traceEvent{Name: name, Cat: "tmperf", Ph: "b", TS: us(start), PID: 1, TID: s.tenant, ID: id, Args: args},
				traceEvent{Name: name, Cat: "tmperf", Ph: "e", TS: us(end), PID: 1, TID: s.tenant, ID: id})
		}
		add("freshness", s.due, s.end, root, 0)
		parent := root
		for k, sp := range s.spans {
			add(sp.name, sp.start, sp.end, root+k+1, parent)
			parent = root + k + 1
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
