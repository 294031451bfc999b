package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// call (never inside the program). parent indexes the session's span
// list (-1 for a root); spans of one request share req.
type span struct {
	name   string
	layer  string
	start  int64 // ns since the tracer's base
	end    int64
	parent int32
	req    uint64
	seg    int32 // measured-phase segment of the root span
}

// sessionTrace is one session's span buffer. Only its session writes
// it, so it needs no lock; a nil *sessionTrace records nothing.
type sessionTrace struct {
	t     *tracer
	spans []span
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	base     time.Time
	on       atomic.Bool
	sessions []*sessionTrace
	segStart []int64 // controller clock at each segment's start
	life     []span  // set-up, reopen and close calls, outside any request
}

func newTracer(sessions int) *tracer {
	t := &tracer{base: time.Now()}
	for i := 0; i < sessions; i++ {
		t.sessions = append(t.sessions, &sessionTrace{t: t})
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// session returns session s's buffer while tracing is on, else nil.
func (t *tracer) session(s int) *sessionTrace {
	if t == nil || !t.on.Load() {
		return nil
	}
	return t.sessions[s]
}

func (st *sessionTrace) open(name, layer string, parent int32, req uint64) int32 {
	if st == nil {
		return -1
	}
	st.spans = append(st.spans, span{name: name, layer: layer, start: st.t.now(), parent: parent, req: req, seg: -1})
	return int32(len(st.spans) - 1)
}

// openRoot opens a request's root span in measured segment seg.
func (st *sessionTrace) openRoot(name, layer string, req uint64, seg int) int32 {
	i := st.open(name, layer, -1, req)
	if i >= 0 {
		st.spans[i].seg = int32(seg)
	}
	return i
}

// lifecycle times fn as a span outside any request and returns its
// duration. Lifecycle spans go to the trace file but not into the
// measured phase's reconciliation.
func (t *tracer) lifecycle(name, layer string, fn func() error) (time.Duration, error) {
	start := t.now()
	err := fn()
	end := t.now()
	t.life = append(t.life, span{name: name, layer: layer, start: start, end: end, parent: -1, seg: -1})
	return time.Duration(end - start), err
}

func (st *sessionTrace) close(i int32) {
	if st == nil || i < 0 {
		return
	}
	st.spans[i].end = st.t.now()
}

// reconciliation is the traced run's accounting: per-layer self time
// plus the untraced gaps between a session's requests, against the wall
// time those sessions spent in traced segments.
type reconciliation struct {
	self  map[string]int64 // layer → Σ self time
	gaps  int64
	wall  int64
	spans int
}

// reconcileTolerance is the largest |accounted − wall| / wall accepted.
const reconcileTolerance = 0.01

func (r reconciliation) errFrac() float64 {
	if r.wall == 0 {
		return 0
	}
	var acc int64 = r.gaps
	for _, v := range r.self {
		acc += v
	}
	d := float64(acc-r.wall) / float64(r.wall)
	if d < 0 {
		d = -d
	}
	return d
}

// reconcile computes self times — a span's duration minus the part of
// it its children cover — and the gaps between consecutive root spans of
// each session within each traced segment (from the controller's
// segment start to the first request, then between requests). A child
// outside its parent or overlapping a sibling breaks the sum.
func (t *tracer) reconcile() reconciliation {
	r := reconciliation{self: map[string]int64{}}
	for _, st := range t.sessions {
		kids := make([][]int32, len(st.spans))
		for i, sp := range st.spans {
			if sp.parent >= 0 {
				kids[sp.parent] = append(kids[sp.parent], int32(i))
			}
		}
		for i, sp := range st.spans {
			r.self[sp.layer] += (sp.end - sp.start) - covered(st.spans, sp, kids[i])
		}
		r.spans += len(st.spans)
		last := map[int32]int64{} // segment → end of its latest root
		for _, sp := range st.spans {
			if sp.parent >= 0 || sp.seg < 0 {
				continue
			}
			prev, seen := last[sp.seg]
			if !seen {
				prev = t.segStart[sp.seg]
				r.wall -= prev
			}
			r.gaps += sp.start - prev
			last[sp.seg] = sp.end
		}
		for _, end := range last {
			r.wall += end
		}
	}
	return r
}

// covered returns how much of parent's interval the children cover.
func covered(spans []span, parent span, kids []int32) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := spans[k].start, spans[k].end
		if s < parent.start {
			s = parent.start
		}
		if e > parent.end {
			e = parent.end
		}
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi int64
	hi = parent.start
	for _, x := range iv {
		if x[0] > hi {
			hi = x[0]
		}
		if x[1] > hi {
			total += x[1] - hi
			hi = x[1]
		}
	}
	return total
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) latencies {
	var out latencies
	for _, st := range t.sessions {
		for _, sp := range st.spans {
			if sp.name == name {
				out = append(out, sp.end-sp.start)
			}
		}
	}
	return out
}

func (l latencies) sum() int64 {
	var s int64
	for _, v := range l {
		s += v
	}
	return s
}

// write dumps every span as one JSON object per line; lifecycle spans
// carry session -1.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	all := append([]*sessionTrace{{spans: t.life}}, t.sessions...)
	for s, st := range all {
		for _, sp := range st.spans {
			if err := enc.Encode(map[string]any{
				"session": s - 1, "name": sp.name, "layer": sp.layer, "start_ns": sp.start,
				"end_ns": sp.end, "parent": sp.parent, "req": sp.req,
			}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
