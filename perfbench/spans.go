package main

import (
	"context"
	"sort"
	"sync"
	"time"
)

// kind names the seam a span was recorded at.
type kind uint8

const (
	kKeystroke kind = iota + 1 // root: one keystroke (Replace + Sync)
	kFlush                     // root: Session.Flush after a burst or an open
	kOpen                      // root: one cold open
	kEdit                      // client: Client.Replace
	kSync                      // client: Client.Sync
	kLoad                      // client: Client.Load
	kMediator                  // mediator: Extension.RoundTrip
	kWire                      // wire: base transport, request start to response body close
	kServer                    // server: gdocs.Server handler
	kStore                     // store: gdocs.Backend call
)

// reqKind classifies the request (or backend call) behind a span.
type reqKind uint8

const (
	rNone    reqKind = iota
	rSave            // POST /Doc
	rFetch           // GET /Doc, whole document
	rCatchup         // GET /Doc?since=V
	rCreate          // POST /DocCreate
	rPut             // Backend.Put
	rGet             // Backend.Get
)

// span is one timed call at a seam. Times are nanoseconds since the
// recorder's origin. parent is an index into the recorder's spans, -1 for
// none; store spans and background writer requests get theirs resolved
// after the run (see link).
type span struct {
	kind    kind
	req     reqKind
	author  int8
	parent  int32
	doc     string
	start   int64
	end     int64
	status  int
	bytes   int64
	version int
}

func (s *span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin records the start of s and returns its id.
func (r *recorder) begin(s span) int32 {
	s.start = r.now()
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// finish records the end of span id with its outcome.
func (r *recorder) finish(id int32, status int, bytes int64) {
	end := r.now()
	r.mu.Lock()
	s := &r.spans[id]
	s.end, s.status = end, status
	if bytes != 0 {
		s.bytes = bytes
	}
	r.mu.Unlock()
}

// add records a span whose start and end are already set.
func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

type spanKey struct{}

// withSpan returns ctx carrying span id as the parent of calls made under it.
func withSpan(ctx context.Context, id int32) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// spanFrom returns the span ctx carries, -1 for none.
func spanFrom(ctx context.Context) int32 {
	if id, ok := ctx.Value(spanKey{}).(int32); ok {
		return id
	}
	return -1
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the intervals cover, counting
// overlaps once.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curLo, curHi, open = iv.lo, iv.hi, true
		case iv.lo <= curHi:
			curHi = max(curHi, iv.hi)
		default:
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// tree is the linked span set of one traced run.
type tree struct {
	spans    []span
	children [][]int32
}

// link resolves the parents the seams could not know when they recorded
// (a Backend call carries no context: it belongs to the server span of
// the same document whose interval contains it, preferring the save whose
// base version it advances) and indexes children by parent.
func link(spans []span) *tree {
	byDoc := map[string][]int32{}
	for i := range spans {
		if spans[i].kind == kServer {
			byDoc[spans[i].doc] = append(byDoc[spans[i].doc], int32(i))
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.kind != kStore || s.parent >= 0 {
			continue
		}
		best, bestStart, exact := int32(-1), int64(-1), false
		for _, j := range byDoc[s.doc] {
			p := &spans[j]
			if p.start > s.start || p.end < s.end {
				continue
			}
			match := s.req == rPut && p.req == rSave && p.version+1 == s.version
			if (match && !exact) || (match == exact && p.start > bestStart) {
				best, bestStart, exact = j, p.start, match
			}
		}
		s.parent = best
	}
	t := &tree{spans: spans, children: make([][]int32, len(spans))}
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			t.children[p] = append(t.children[p], int32(i))
		}
	}
	return t
}

// self returns span id's duration minus the part of it its children cover.
func (t *tree) self(id int32) int64 {
	s := &t.spans[id]
	ivs := make([]interval, 0, len(t.children[id]))
	for _, c := range t.children[id] {
		ivs = append(ivs, interval{t.spans[c].start, t.spans[c].end})
	}
	return s.dur() - covered(s.start, s.end, ivs)
}

// flushLedger accounts for one Flush span f from outside, using the wire
// spans its author's writer had open on the document during f. Between
// them, and before the first, the writer holds the next save (transform,
// ack parsing, repair): those stretches are returned as gaps. The rest of
// f, from the last response to Flush returning, is ack handling plus the
// waiter's wake-up, which no seam separates: it is returned as residual.
// saved reports whether any of the wire spans was a save.
func flushLedger(f span, wires []span) (gaps []int64, residual int64, saved bool) {
	var ivs []interval
	for _, w := range wires {
		if w.author == f.author && w.doc == f.doc && w.start < f.end && w.end > f.start {
			ivs = append(ivs, interval{max(w.start, f.start), min(w.end, f.end)})
			saved = saved || w.req == rSave
		}
	}
	if len(ivs) == 0 {
		return nil, f.dur(), false
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var gapTotal int64
	hi := f.start
	for _, iv := range ivs {
		if iv.lo > hi {
			gaps = append(gaps, iv.lo-hi)
			gapTotal += iv.lo - hi
		}
		hi = max(hi, iv.hi)
	}
	return gaps, f.dur() - covered(f.start, f.end, ivs) - gapTotal, saved
}
