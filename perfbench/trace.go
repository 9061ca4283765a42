package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Name is "<layer>.<function>"; Parent is the id of the span
// that caused it (0 for a root) and Req the request or operation it serves.
type span struct {
	Name       string
	ID, Parent int64
	Req        int64
	Lane       int
	Start, End int64 // nanoseconds since the tracer's epoch
}

// maxSpans bounds the in-memory span buffer; spans past it are counted as
// dropped instead of growing the heap without limit.
const maxSpans = 1 << 20

// tracer keeps spans in memory and writes them out when the run ends. A
// disabled tracer costs one branch per call site.
type tracer struct {
	on      bool
	epoch   time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now()}
}

// id allocates a span id, or 0 when tracing is off. A parent takes its id
// before its children run so they can name it.
func (t *tracer) id() int64 {
	if !t.on {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a finished span. id 0 allocates one.
func (t *tracer) record(name string, id, parent, req int64, lane int, start, end time.Time) {
	if !t.on {
		return
	}
	if id == 0 {
		id = t.nextID.Add(1)
	}
	s := span{Name: name, ID: id, Parent: parent, Req: req, Lane: lane,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each layer's self time in seconds: every span's
// duration minus the part of it its child spans cover, summed per layer.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
		out[layerOf(s.Name)] += float64(self) / 1e9
	}
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a >= b {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// count returns the number of recorded spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), which Perfetto and chrome://tracing
// open directly. Each event carries its id, parent and request id.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":%d},\"traceEvents\":[\n", t.dropped)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, "{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}",
			s.Name, layerOf(s.Name), s.Lane, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.ID, s.Parent, s.Req)
	}
	t.mu.Unlock()
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
