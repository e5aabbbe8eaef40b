// Package trace records per-cycle instruction-fire events from triggered
// PEs and renders them as logs or as a waterfall timeline — the tool one
// reaches for when debugging why a spatial pipeline stalls or deadlocks.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"tia/internal/isa"
	"tia/internal/pe"
)

// Event is one instruction fire.
type Event struct {
	Cycle  int64
	PE     string
	Inst   int
	Label  string
	Result isa.Word
}

// Recorder collects events from any number of PEs, keeping at most the
// configured limit (oldest dropped first; 0 means unlimited).
type Recorder struct {
	limit int
	// events is a ring once it holds limit events: the oldest is
	// events[head], and a new event overwrites it.
	events  []Event
	head    int
	dropped int64
	pes     []string
}

// New returns a recorder bounded to limit events (0 = unbounded).
func New(limit int) *Recorder { return &Recorder{limit: limit} }

// Attach hooks the recorder onto a PE's trace callback. Any previously
// installed hook is chained.
func (r *Recorder) Attach(p *pe.PE) {
	name := p.Name()
	r.pes = append(r.pes, name)
	prog := p.Program()
	labels := make([]string, len(prog))
	for i, in := range prog {
		labels[i] = in.Label
		if labels[i] == "" {
			labels[i] = fmt.Sprintf("#%d", i)
		}
	}
	prev := p.Trace
	p.Trace = func(cycle int64, instIdx int, result isa.Word) {
		if prev != nil {
			prev(cycle, instIdx, result)
		}
		var label string
		if instIdx < len(labels) {
			label = labels[instIdx]
		} else {
			label = fmt.Sprintf("#%d", instIdx)
		}
		r.add(Event{Cycle: cycle, PE: name, Inst: instIdx, Label: label, Result: result})
	}
}

// add records one event in O(1): past the limit it overwrites the
// oldest event.
func (r *Recorder) add(e Event) {
	if r.limit > 0 && len(r.events) >= r.limit {
		r.events[r.head] = e
		if r.head++; r.head == len(r.events) {
			r.head = 0
		}
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

// Events returns the recorded events in order. Once the ring has
// wrapped, the first call after an add copies the window out in order.
func (r *Recorder) Events() []Event {
	if r.head > 0 {
		r.events = append(append(make([]Event, 0, len(r.events)), r.events[r.head:]...), r.events[:r.head]...)
		r.head = 0
	}
	return r.events
}

// Dropped reports how many events fell out of the bounded window.
func (r *Recorder) Dropped() int64 { return r.dropped }

// WriteLog prints one line per event.
func (r *Recorder) WriteLog(w io.Writer) {
	if r.dropped > 0 {
		fmt.Fprintf(w, "... %d earlier events dropped ...\n", r.dropped)
	}
	for _, e := range r.Events() {
		fmt.Fprintf(w, "cycle %6d  %-12s %-12s = %d\n", e.Cycle, e.PE, e.Label, e.Result)
	}
}

// WriteTimeline renders a waterfall: one row per cycle in [from, to), one
// column per attached PE, each cell the label of the instruction that
// fired (or "." for an idle cycle).
func (r *Recorder) WriteTimeline(w io.Writer, from, to int64) {
	cols := append([]string(nil), r.pes...)
	sort.Strings(cols)
	colIdx := map[string]int{}
	width := 8
	for i, c := range cols {
		colIdx[c] = i
		if len(c) > width {
			width = len(c)
		}
	}
	// Bucket events by cycle.
	byCycle := map[int64][]Event{}
	for _, e := range r.Events() {
		if e.Cycle >= from && e.Cycle < to {
			byCycle[e.Cycle] = append(byCycle[e.Cycle], e)
		}
	}
	fmt.Fprintf(w, "%8s", "cycle")
	for _, c := range cols {
		fmt.Fprintf(w, "  %-*s", width, c)
	}
	fmt.Fprintln(w)
	for cyc := from; cyc < to; cyc++ {
		cells := make([]string, len(cols))
		for i := range cells {
			cells[i] = "."
		}
		for _, e := range byCycle[cyc] {
			i := colIdx[e.PE]
			if cells[i] == "." {
				cells[i] = e.Label
			} else {
				cells[i] += "+" + e.Label // multi-issue
			}
		}
		fmt.Fprintf(w, "%8d", cyc)
		for _, c := range cells {
			fmt.Fprintf(w, "  %-*s", width, c)
		}
		fmt.Fprintln(w)
	}
}

// WriteChromeJSON exports the events in the Chrome trace-event format
// (load the file at chrome://tracing or in Perfetto): each fire is a
// 1-unit "complete" event on its PE's row, so pipeline overlap is visible
// at a glance.
func (r *Recorder) WriteChromeJSON(w io.Writer) error {
	type chromeEvent struct {
		Name     string `json:"name"`
		Phase    string `json:"ph"`
		TS       int64  `json:"ts"`
		Duration int64  `json:"dur"`
		PID      int    `json:"pid"`
		TID      string `json:"tid"`
	}
	events := make([]chromeEvent, 0, len(r.events))
	for _, e := range r.Events() {
		events = append(events, chromeEvent{
			Name:     e.Label,
			Phase:    "X",
			TS:       e.Cycle,
			Duration: 1,
			PID:      1,
			TID:      e.PE,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
}

// FireCounts aggregates fires per (PE, label), most frequent first.
type FireCount struct {
	PE    string
	Label string
	Count int64
}

// Histogram returns per-instruction fire counts.
func (r *Recorder) Histogram() []FireCount {
	m := map[[2]string]int64{}
	for _, e := range r.Events() {
		m[[2]string{e.PE, e.Label}]++
	}
	out := make([]FireCount, 0, len(m))
	for k, v := range m {
		out = append(out, FireCount{PE: k[0], Label: k[1], Count: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].PE != out[j].PE {
			return out[i].PE < out[j].PE
		}
		return out[i].Label < out[j].Label
	})
	return out
}
