package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"tia/internal/fabric"
	"tia/internal/isa"
	"tia/internal/pe"
)

func mergeFabric(t *testing.T) (*fabric.Fabric, *pe.PE, *fabric.Sink) {
	t.Helper()
	f := fabric.New(fabric.DefaultConfig())
	a := fabric.NewWordSource("a", []isa.Word{1, 3}, true)
	b := fabric.NewWordSource("b", []isa.Word{2, 4}, true)
	m, err := pe.New("merge", isa.DefaultConfig(), pe.MergeProgram())
	if err != nil {
		t.Fatal(err)
	}
	snk := fabric.NewSink("snk")
	f.Add(a)
	f.Add(b)
	f.Add(m)
	f.Add(snk)
	f.Wire(a, 0, m, 0)
	f.Wire(b, 0, m, 1)
	f.Wire(m, 0, snk, 0)
	return f, m, snk
}

func TestRecorderCapturesFires(t *testing.T) {
	f, m, _ := mergeFabric(t)
	r := New(0)
	r.Attach(m)
	if _, err := f.Run(1000); err != nil {
		t.Fatal(err)
	}
	if int64(len(r.Events())) != m.DynamicInstructions() {
		t.Fatalf("recorded %d events, PE fired %d", len(r.Events()), m.DynamicInstructions())
	}
	// First fire of the merge program must be the compare.
	if r.Events()[0].Label != "cmp" {
		t.Errorf("first event %+v, want cmp", r.Events()[0])
	}
	var sb strings.Builder
	r.WriteLog(&sb)
	if !strings.Contains(sb.String(), "cmp") || !strings.Contains(sb.String(), "merge") {
		t.Errorf("log missing expected fields:\n%s", sb.String())
	}
}

func TestBoundedRecorderDropsOldest(t *testing.T) {
	f, m, _ := mergeFabric(t)
	r := New(3)
	r.Attach(m)
	if _, err := f.Run(1000); err != nil {
		t.Fatal(err)
	}
	if len(r.Events()) != 3 {
		t.Fatalf("bounded recorder kept %d events", len(r.Events()))
	}
	if r.Dropped() == 0 {
		t.Fatal("no drops recorded")
	}
	// The last event must be the halting fin.
	last := r.Events()[2]
	if last.Label != "fin" {
		t.Errorf("last event %+v, want fin", last)
	}
}

func TestTimelineAndHistogram(t *testing.T) {
	f, m, _ := mergeFabric(t)
	r := New(0)
	r.Attach(m)
	if _, err := f.Run(1000); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	r.WriteTimeline(&sb, 0, 10)
	out := sb.String()
	if !strings.Contains(out, "merge") || !strings.Contains(out, "cmp") {
		t.Errorf("timeline missing content:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 11 {
		t.Errorf("timeline should have header + 10 rows:\n%s", out)
	}
	h := r.Histogram()
	if len(h) == 0 {
		t.Fatal("empty histogram")
	}
	total := int64(0)
	for _, fc := range h {
		total += fc.Count
	}
	if total != m.DynamicInstructions() {
		t.Errorf("histogram total %d, fired %d", total, m.DynamicInstructions())
	}
	for i := 1; i < len(h); i++ {
		if h[i].Count > h[i-1].Count {
			t.Fatal("histogram not sorted by count")
		}
	}
}

func TestChromeJSONExport(t *testing.T) {
	f, m, _ := mergeFabric(t)
	r := New(0)
	r.Attach(m)
	if _, err := f.Run(1000); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WriteChromeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	evs, ok := doc["traceEvents"].([]any)
	if !ok || int64(len(evs)) != m.DynamicInstructions() {
		t.Fatalf("traceEvents count %d, want %d", len(evs), m.DynamicInstructions())
	}
	first := evs[0].(map[string]any)
	if first["tid"] != "merge" || first["ph"] != "X" {
		t.Fatalf("unexpected event shape: %v", first)
	}
}

// shiftAdd is the recorder's former add, kept as the reference window:
// past the limit it shifted every kept event down by one.
func shiftAdd(r *Recorder, e Event) {
	if r.limit > 0 && len(r.events) >= r.limit {
		copy(r.events, r.events[1:])
		r.events[len(r.events)-1] = e
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

// TestRingMatchesShiftWindow: below, at and past the limit, the ring
// keeps the same events in the same order as the shifting window, with
// the same Dropped, so the Chrome JSON, the log, the timeline and the
// histogram are byte-identical.
func TestRingMatchesShiftWindow(t *testing.T) {
	const limit = 7
	for _, n := range []int{0, 3, limit, limit + 1, 2*limit + 3, 5 * limit} {
		ring, ref := New(limit), New(limit)
		ring.pes = []string{"pe0", "pe1", "pe2"}
		ref.pes = ring.pes
		for i := 0; i < n; i++ {
			e := Event{Cycle: int64(i / 2), PE: fmt.Sprintf("pe%d", i%3), Inst: i % 4,
				Label: fmt.Sprintf("l%d", i%5), Result: isa.Word(i)}
			ring.add(e)
			shiftAdd(ref, e)
			if i == n/2 {
				ring.Events() // an early read must not disturb later adds
			}
		}
		if ring.Dropped() != ref.Dropped() {
			t.Fatalf("n=%d: Dropped %d, want %d", n, ring.Dropped(), ref.Dropped())
		}
		render := func(r *Recorder) string {
			var sb strings.Builder
			if err := r.WriteChromeJSON(&sb); err != nil {
				t.Fatal(err)
			}
			r.WriteLog(&sb)
			r.WriteTimeline(&sb, 0, int64(n))
			fmt.Fprint(&sb, r.Histogram())
			return sb.String()
		}
		if got, want := render(ring), render(ref); got != want {
			t.Fatalf("n=%d: ring output differs from the shifting window\n got: %s\nwant: %s", n, got, want)
		}
	}
}

// TestRingAddIsConstantTime: 2·limit adds take linear time. The former
// shifting window moved the whole window on every add past the limit,
// about 240 GB of copying at this limit.
func TestRingAddIsConstantTime(t *testing.T) {
	const limit = 1 << 16
	r := New(limit)
	start := time.Now()
	for i := 0; i < 2*limit; i++ {
		r.add(Event{Cycle: int64(i), PE: "p", Label: "x"})
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("%d adds at limit %d took %v", 2*limit, limit, el)
	}
	ev := r.Events()
	if len(ev) != limit || r.Dropped() != limit || ev[0].Cycle != limit || ev[limit-1].Cycle != 2*limit-1 {
		t.Fatalf("window holds %d events from cycle %d to %d, dropped %d",
			len(ev), ev[0].Cycle, ev[len(ev)-1].Cycle, r.Dropped())
	}
}
