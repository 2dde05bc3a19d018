package mediator

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"privedit/internal/core"
	"privedit/internal/crypt"
	"privedit/internal/delta"
)

func unitExtension() *Extension {
	opts := core.Options{
		Scheme:     core.ConfidentialityIntegrity,
		BlockChars: 8,
		Nonces:     crypt.NewSeededNonceSource(1),
	}
	return New(http.DefaultTransport, StaticPassword("hunter2", opts))
}

func TestWriterBackoff(t *testing.T) {
	cases := []struct {
		streak int
		want   time.Duration
	}{
		{0, 5 * time.Millisecond},
		{1, 5 * time.Millisecond},
		{2, 10 * time.Millisecond},
		{4, 40 * time.Millisecond},
		{10, time.Second},  // doubling overshoots the ceiling
		{100, time.Second}, // and stays clamped
	}
	for _, c := range cases {
		if got := writerBackoff(c.streak); got != c.want {
			t.Errorf("writerBackoff(%d) = %v, want %v", c.streak, got, c.want)
		}
	}
}

func TestWaitOrWake(t *testing.T) {
	// Timer path: a tiny delay with no wake signal just sleeps.
	start := time.Now()
	waitOrWake(make(chan struct{}, 1), time.Millisecond)
	if time.Since(start) < time.Millisecond {
		t.Error("waitOrWake returned before the timer fired")
	}
	// Wake path: a pending kick returns long before the timer.
	wake := make(chan struct{}, 1)
	wake <- struct{}{}
	start = time.Now()
	waitOrWake(wake, time.Minute)
	if time.Since(start) > 10*time.Second {
		t.Error("waitOrWake ignored the wake signal")
	}
}

func TestHistRing(t *testing.T) {
	pl := &plState{sv: 0}
	for i := 1; i <= 3; i++ {
		pl.sv = i
		pl.recordHistLocked("wire-" + string(rune('0'+i)))
	}

	if deltas, ok := pl.deltasSinceLocked(3); !ok || len(deltas) != 0 {
		t.Errorf("deltasSince(sv) = %v, %v; want empty, true", deltas, ok)
	}
	if _, ok := pl.deltasSinceLocked(4); ok {
		t.Error("deltasSince(future) reported covered")
	}
	deltas, ok := pl.deltasSinceLocked(1)
	if !ok || len(deltas) != 2 || deltas[0] != "wire-2" || deltas[1] != "wire-3" {
		t.Errorf("deltasSince(1) = %v, %v", deltas, ok)
	}
	if deltas, ok = pl.deltasSinceLocked(0); !ok || len(deltas) != 3 {
		t.Errorf("deltasSince(0) = %v, %v; want all 3", deltas, ok)
	}
	// A span starting before the ring's oldest entry is not covered.
	if _, ok = pl.deltasSinceLocked(-1); ok {
		t.Error("deltasSince before ring start reported covered")
	}

	pl.clearHistLocked()
	if _, ok = pl.deltasSinceLocked(1); ok {
		t.Error("cleared ring still reported coverage")
	}
	if pl.histBytes != 0 || len(pl.hist) != 0 {
		t.Errorf("clearHistLocked left hist=%d bytes=%d", len(pl.hist), pl.histBytes)
	}
}

func TestHistRingEviction(t *testing.T) {
	pl := &plState{}
	big := make([]byte, maxPlHistBytes/2+1)
	for i := range big {
		big[i] = 'x'
	}
	for i := 1; i <= 3; i++ {
		pl.sv = i
		pl.recordHistLocked(string(big))
	}
	if len(pl.hist) != 1 {
		t.Fatalf("byte cap kept %d entries, want 1", len(pl.hist))
	}
	// The surviving entry is the newest; older spans are uncovered.
	if _, ok := pl.deltasSinceLocked(1); ok {
		t.Error("evicted span reported covered")
	}
	if deltas, ok := pl.deltasSinceLocked(2); !ok || len(deltas) != 1 {
		t.Errorf("deltasSince(2) = %d deltas, %v; want 1, true", len(deltas), ok)
	}
}

func TestCollapseQueueLocked(t *testing.T) {
	e := unitExtension()
	sess := &session{pl: &plState{
		srvPlain: "server holds this",
		plain:    "local view wins",
		queue:    []*plEntry{{}, {}, {}},
	}}
	sess.mu.Lock()
	e.collapseQueueLocked(sess)
	sess.mu.Unlock()

	pl := sess.pl
	if len(pl.queue) != 1 {
		t.Fatalf("queue = %d entries after collapse, want 1", len(pl.queue))
	}
	ent := pl.queue[0]
	if !ent.full || ent.before != "server holds this" || ent.after != "local view wins" {
		t.Errorf("collapsed entry = %+v", ent)
	}
	if ent.id == "" {
		t.Error("collapsed entry has no idempotency token")
	}
	if pl.stats.ConflictResyncs != 1 {
		t.Errorf("ConflictResyncs = %d, want 1", pl.stats.ConflictResyncs)
	}
	if st := e.Stats(); st.ConflictResyncs != 1 || st.QueueDepth != -2 {
		t.Errorf("extension stats = %+v", st)
	}
}

func TestDropQueueLocked(t *testing.T) {
	e := unitExtension()
	idle := make(chan struct{})
	sess := &session{pl: &plState{
		queue:   []*plEntry{{}, {}},
		rejects: 7,
		idle:    []chan struct{}{idle},
	}}
	sess.mu.Lock()
	e.dropQueueLocked(sess)
	sess.mu.Unlock()

	pl := sess.pl
	if len(pl.queue) != 0 || pl.rejects != 0 {
		t.Errorf("queue=%d rejects=%d after drop", len(pl.queue), pl.rejects)
	}
	if pl.stats.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", pl.stats.Dropped)
	}
	if st := e.Stats(); st.DroppedSaves != 2 {
		t.Errorf("DroppedSaves = %d, want 2", st.DroppedSaves)
	}
	select {
	case <-idle:
	default:
		t.Error("drop with empty queue did not release Flush waiters")
	}
}

func TestReloadShadowLockedEmptyMirror(t *testing.T) {
	e := unitExtension()
	sess := &session{pl: &plState{srvTransport: ""}}
	sess.mu.Lock()
	err := e.reloadShadowLocked(sess, "shadow-doc")
	sess.mu.Unlock()
	if err != nil {
		t.Fatalf("reload from empty mirror: %v", err)
	}
	if sess.ed != nil {
		t.Error("empty mirror left a shadow editor behind")
	}
}

// queueEntry builds a delta entry applying p to before.
func queueEntry(t *testing.T, id, before string, p delta.Delta) *plEntry {
	t.Helper()
	after, err := p.Apply(before)
	if err != nil {
		t.Fatalf("entry %s: %v", id, err)
	}
	return &plEntry{p: p, before: before, after: after, id: id}
}

func TestEnqueueFoldsOnlyIntoUnsentTail(t *testing.T) {
	e := unitExtension()
	e.pipeDepth = 1
	for _, sent := range []bool{false, true} {
		head := queueEntry(t, "head", "hello world", delta.Delta{delta.RetainOp(5), delta.InsertOp("A")})
		if sent {
			// A send whose outcome is unknown: not in flight any more, but
			// its cached wire must go out again unchanged.
			head.wire, head.sentPlain = "sent-wire", head.after
		}
		sess := &session{pl: &plState{queue: []*plEntry{head}}}
		sess.mu.Lock()
		e.enqueueLocked(sess, queueEntry(t, "", head.after, delta.Delta{delta.RetainOp(6), delta.InsertOp("B")}))
		sess.mu.Unlock()

		q := sess.pl.queue
		if !sent {
			if len(q) != 1 || q[0].after != "helloAB world" {
				t.Errorf("unsent tail: queue %d entries, head after %q; want the keystroke folded in", len(q), q[0].after)
			}
			continue
		}
		if len(q) != 2 {
			t.Fatalf("sent tail: queue %d entries, want the keystroke appended", len(q))
		}
		if q[0].id != "head" || q[0].wire != "sent-wire" || q[0].after != "helloA world" {
			t.Errorf("sent head was changed: %+v", q[0])
		}
	}
}

func TestMergeQueueComposesIntoHead(t *testing.T) {
	e := unitExtension()
	e1 := queueEntry(t, "head", "abc", delta.Delta{delta.InsertOp("1")})
	e2 := queueEntry(t, "second", e1.after, delta.Delta{delta.RetainOp(4), delta.InsertOp("2")})
	e3 := queueEntry(t, "third", e2.after, delta.Delta{delta.RetainOp(2), delta.DeleteOp(1)})
	sess := &session{pl: &plState{queue: []*plEntry{e1, e2, e3}}}
	sess.mu.Lock()
	e.mergeQueueLocked(sess)
	sess.mu.Unlock()

	q := sess.pl.queue
	if len(q) != 1 {
		t.Fatalf("queue %d entries after merge, want 1", len(q))
	}
	got, err := q[0].p.Apply("abc")
	if err != nil || got != e3.after || q[0].after != e3.after || q[0].id != "head" {
		t.Errorf("merged head = %+v, applies to %q (%v); want after %q under id head", q[0], got, err, e3.after)
	}
	if sess.pl.stats.Coalesced != 2 {
		t.Errorf("Coalesced = %d, want 2", sess.pl.stats.Coalesced)
	}
}

func TestMergeQueueSplitsPastOpBound(t *testing.T) {
	e := unitExtension()
	base := strings.Repeat("x", 600)
	// Two heavily fragmented deltas whose inserts interleave: each stays
	// under the bound, their composition does not.
	var p1, p2 delta.Delta
	for i := 0; i < 150; i++ {
		p1 = append(p1, delta.RetainOp(2), delta.InsertOp("a"))
		p2 = append(p2, delta.RetainOp(1), delta.InsertOp("b"), delta.RetainOp(2))
	}
	e1 := queueEntry(t, "head", base, p1)
	e2 := queueEntry(t, "second", e1.after, p2)
	e3 := queueEntry(t, "third", e2.after, delta.Delta{delta.InsertOp("c")})
	if q, err := delta.Compose(e1.p, e2.p, len(base)); err != nil || len(q) <= maxCoalescedOps {
		t.Fatalf("precondition: composed %d ops (%v), want more than %d", len(q), err, maxCoalescedOps)
	}
	sess := &session{pl: &plState{queue: []*plEntry{e1, e2, e3}}}
	sess.mu.Lock()
	e.mergeQueueLocked(sess)
	sess.mu.Unlock()

	q := sess.pl.queue
	if len(q) != 2 {
		t.Fatalf("queue %d entries after merge, want 2 (split at the op bound)", len(q))
	}
	if q[0].after != e1.after || q[1].before != e1.after || q[1].after != e3.after {
		t.Error("split merge lost the entries' lineage")
	}
	if got, err := q[1].p.Apply(q[1].before); err != nil || got != e3.after {
		t.Errorf("second entry applies to %q (%v), want %q", got, err, e3.after)
	}
}
