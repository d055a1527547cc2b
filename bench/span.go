package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one interval the harness observed at a layer boundary. Spans of
// one op share Op; Parent is the span that caused this one (0 for the op's
// root). Start and End are nanoseconds since the recorder's epoch. The
// program itself records nothing: every span is taken around a call the
// harness makes, or from a callback or middleware the harness installed.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Op     int               `json:"op"`
	Name   string            `json:"name"`
	Layer  string            `json:"layer"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// (stages run in parallel) and may stick out of the parent (a route that
// answers after the batch span closed); both are handled by clipping the
// children to the parent and taking the union of what is left.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	end := parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// keepPerRow is how many complete span trees per row go into the span file.
// A warm tensorflow388 op alone is ~1200 spans; the sums cover every traced
// op, the file only needs enough trees to read a timeline from.
const keepPerRow = 4

// recorder folds finished ops into per-layer sums and keeps the span trees
// of the first few ops of every row. Everything stays in memory until write.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	nextOp atomic.Int64

	mu        sync.Mutex
	ops       int
	selfNS    map[string]int64   // layer → self time summed over traced ops
	rootNS    int64              // root-span durations, summed
	rootSelf  int64              // root-span self times: wall no child span covers
	sums      map[string]float64 // per-op layer counters, summed over traced ops
	kept      []span
	keptByRow map[string]int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), selfNS: map[string]int64{}, sums: map[string]float64{}, keptByRow: map[string]int{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// opTrace is one traced op. A nil *opTrace is an untraced op: every method
// is a no-op on nil, so workload code reads the same either way.
type opTrace struct {
	rec  *recorder
	row  string
	op   int
	root int
	t0   int64
	open atomic.Int64 // ID of the harness span children attach to

	mu    sync.Mutex
	spans []span
	sums  map[string]float64
}

// begin starts a traced op on the row; on a nil recorder the op is untraced.
func (r *recorder) begin(row string) *opTrace {
	if r == nil {
		return nil
	}
	t := &opTrace{rec: r, row: row, op: int(r.nextOp.Add(1)), root: int(r.nextID.Add(1)), t0: r.now(), sums: map[string]float64{}}
	t.open.Store(int64(t.root))
	return t
}

// liveSpan is an open harness span; end closes it.
type liveSpan struct {
	t      *opTrace
	s      span
	parent int64
}

// span opens a child of the currently open span. Harness spans of one op
// open and close on the op's own goroutine, so they nest.
func (t *opTrace) span(name, layer string) *liveSpan {
	if t == nil {
		return nil
	}
	ls := &liveSpan{t: t, parent: t.open.Load()}
	ls.s = span{ID: int(t.rec.nextID.Add(1)), Parent: int(ls.parent), Name: name, Layer: layer, Start: t.rec.now()}
	t.open.Store(int64(ls.s.ID))
	return ls
}

func (ls *liveSpan) end() time.Duration {
	if ls == nil {
		return 0
	}
	ls.s.End = ls.t.rec.now()
	ls.t.open.Store(ls.parent)
	ls.t.put(ls.s)
	return time.Duration(ls.s.dur())
}

// child records a finished span reported from another goroutine (a stage
// callback, the peer-route middleware) under the currently open span.
func (t *opTrace) child(name, layer string, start, end int64, attrs map[string]string) {
	if t == nil {
		return
	}
	t.put(span{ID: int(t.rec.nextID.Add(1)), Parent: int(t.open.Load()), Name: name, Layer: layer, Start: start, End: end, Attrs: attrs})
}

func (t *opTrace) put(s span) {
	s.Op = t.op
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add accumulates a per-op layer counter.
func (t *opTrace) add(key string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sums[key] += v
	t.mu.Unlock()
}

// finish closes the op's root span and folds the op into the recorder.
func (t *opTrace) finish() {
	if t == nil {
		return
	}
	r := t.rec
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: t.root, Op: t.op, Name: "op", Layer: "harness", Start: t.t0, End: r.now(), Attrs: map[string]string{"row": t.row}})
	self := selfTimes(t.spans)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range t.spans {
		r.selfNS[s.Layer] += self[s.ID]
		if s.Parent == 0 {
			r.rootNS += s.dur()
			r.rootSelf += self[s.ID]
		}
	}
	for k, v := range t.sums {
		r.sums[k] += v
	}
	r.ops++
	if r.keptByRow[t.row] < keepPerRow {
		r.keptByRow[t.row]++
		r.kept = append(r.kept, t.spans...)
	}
}

// accounted is the share of op wall that child spans cover.
func (r *recorder) accounted() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return 1 - ratio(float64(r.rootSelf), float64(r.rootNS))
}

// selfMSPerOp is each layer's self time per traced op, in milliseconds.
func (r *recorder) selfMSPerOp() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.selfNS))
	for l, ns := range r.selfNS {
		out[l] = ratio(float64(ns)/1e6, float64(r.ops))
	}
	return out
}

// write stores the retained span trees as one JSON document.
func (r *recorder) write(path, workload string) error {
	r.mu.Lock()
	blob, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, r.kept})
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
