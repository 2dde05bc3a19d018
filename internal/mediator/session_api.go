// The Session handle: the public per-document API of the extension —
// the document's Editor and degraded state, the pipeline's lifecycle
// operations (Flush, Close) and a per-document stats view.
package mediator

import (
	"context"

	"privedit/internal/core"
)

// Session is a handle on one document's mediation state. It is cheap to
// create (no I/O, no allocation beyond the handle) and safe for
// concurrent use; all state lives in the Extension.
type Session struct {
	e     *Extension
	docID string
}

// Session returns a handle on docID's mediation state. The underlying
// per-document session is created lazily by the first mediated request,
// so a handle can be taken before any traffic flows.
func (e *Extension) Session(docID string) *Session {
	return &Session{e: e, docID: docID}
}

// DocID returns the document this handle mediates.
func (s *Session) DocID() string { return s.docID }

// Editor exposes the document's encryption state (tests and tooling).
// Nil until the first mediated request builds it.
func (s *Session) Editor() *core.Editor {
	e := s.e
	e.mu.RLock()
	sess := e.sessions[s.docID]
	e.mu.RUnlock()
	if sess == nil {
		return nil
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.ed
}

// Degraded reports whether the document is currently behind the server:
// its circuit breaker is open, a degraded-mode shadow awaits drain, or
// (in pipelined mode) saves are still queued.
func (s *Session) Degraded() bool {
	e := s.e
	e.mu.RLock()
	sess := e.sessions[s.docID]
	e.mu.RUnlock()
	if sess == nil {
		return false
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.brk.state != brkClosed || sess.brk.hasShadow {
		return true
	}
	return sess.pl != nil && (len(sess.pl.queue) > 0 || sess.pl.inflight)
}

// Flush blocks until the document's pipeline is fully quiescent — every
// queued save acknowledged by the server and any pending idle catch-up
// folded into the local lineage — or ctx expires. On the legacy
// synchronous path (no WithPipeline) there is never anything pending and
// Flush returns immediately.
func (s *Session) Flush(ctx context.Context) error {
	return s.e.flushSession(ctx, s.docID)
}

// Close tears down the document's session: the writer goroutine exits
// and the session record is removed, so a later request starts fresh
// from the server's state. Queued-but-unsent saves are dropped and
// reported as an error — Flush first for a graceful close.
func (s *Session) Close() error {
	return s.e.closeSession(s.docID)
}

// Stats returns the per-document pipeline counters. On the legacy path
// only Degraded is meaningful.
func (s *Session) Stats() SessionStats {
	e := s.e
	e.mu.RLock()
	sess := e.sessions[s.docID]
	e.mu.RUnlock()
	if sess == nil {
		return SessionStats{}
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.pl == nil {
		return SessionStats{Degraded: sess.brk.state != brkClosed || sess.brk.hasShadow}
	}
	pl := sess.pl
	st := pl.stats
	st.Pending = len(pl.queue)
	st.Degraded = sess.brk.state != brkClosed || len(pl.queue) > 0 || pl.inflight
	st.LocalVersion = pl.sv
	st.ServerVersion = pl.srvVersion
	return st
}
