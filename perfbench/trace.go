package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records spans in memory; they are written once, when the run
// ends. A nil *Tracer records nothing, so untraced code paths pay only a
// nil check.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// Span is one timed call into a layer. Spans of one served request share
// Job, the client-supplied job_id.
type Span struct {
	ID, Parent int64
	Track      int64 // Chrome trace thread: spans on one track nest in time
	Name       string
	Job        string
	Start, End time.Duration // since the tracer's epoch
}

// Active is a span that has started and not yet ended.
type Active struct {
	t     *Tracer
	span  Span
	start time.Time
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Start opens a span under parent (nil for a root). The span inherits its
// parent's track; a root starts a track of its own.
func (t *Tracer) Start(name string, parent *Active, job string) *Active {
	if t == nil {
		return nil
	}
	a := &Active{t: t, span: Span{ID: t.ids.Add(1), Name: name, Job: job}}
	if parent != nil {
		a.span.Parent, a.span.Track = parent.span.ID, parent.span.Track
	} else {
		a.span.Track = a.span.ID
	}
	a.start = time.Now()
	return a
}

// StartTrack is Start for a span that runs concurrently with its
// siblings: it gets a track of its own so the Chrome view stays nested.
func (t *Tracer) StartTrack(name string, parent *Active, job string) *Active {
	a := t.Start(name, parent, job)
	if a != nil {
		a.span.Track = a.span.ID
	}
	return a
}

// End closes the span and returns its duration.
func (a *Active) End() time.Duration {
	if a == nil {
		return 0
	}
	end := time.Now()
	a.span.Start = a.start.Sub(a.t.epoch)
	a.span.End = end.Sub(a.t.epoch)
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.span)
	a.t.mu.Unlock()
	return a.span.End - a.span.Start
}

// Spans returns a copy of every span ended so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// LayerStat aggregates the spans of one name.
type LayerStat struct {
	Count int64
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of durations minus the time child spans cover
}

// MeanSelf is the mean self time per span.
func (s LayerStat) MeanSelf() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Self / time.Duration(s.Count)
}

// MeanTotal is the mean duration per span.
func (s LayerStat) MeanTotal() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// Aggregate sums spans by name. A span's self time is its duration minus
// the union of its children's intervals, clipped to its own.
func Aggregate(spans []Span) map[string]LayerStat {
	children := make(map[int64][][2]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[string]LayerStat)
	for _, s := range spans {
		st := out[s.Name]
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += d - covered(s.Start, s.End, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum time.Duration
	cur0, cur1 := time.Duration(-1), time.Duration(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > cur1 {
			if cur1 > cur0 {
				sum += cur1 - cur0
			}
			cur0, cur1 = a, b
		} else if b > cur1 {
			cur1 = b
		}
	}
	if cur1 > cur0 {
		sum += cur1 - cur0
	}
	return sum
}

// WriteChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), loadable in chrome://tracing or
// Perfetto.
func WriteChrome(path string, spans []Span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Job != "" {
			args["job_id"] = s.Job
		}
		if err := enc.Encode(event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Track, Args: args,
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
		}); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
