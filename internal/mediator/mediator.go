// Package mediator implements the paper's browser extension (Figure 1,
// Figure 2) as an http.RoundTripper: it intercepts every request the
// client application makes, encrypts the document content in save
// requests, transforms incremental deltas into ciphertext deltas, decrypts
// document loads, and drops every request it does not recognize — "for
// security, all requests other than those that can be interpreted and
// encrypted must be blocked" (§III).
//
// The extension holds one core.Editor per document: "the enc_scheme object
// provides three public interfaces: encrypt, decrypt, and transform_delta.
// It also maintains a copy of the state of the ciphertext document which
// is needed to transform the delta" (§IV-B).
package mediator

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"privedit/internal/core"
	"privedit/internal/covert"
	"privedit/internal/crypt"
	"privedit/internal/delta"
	"privedit/internal/gdocs"
	"privedit/internal/obs"
	"privedit/internal/stego"
	"privedit/internal/trace"
)

// Telemetry for the extension's request mediation (Figure 2). No-ops until
// obs.Enable().
var (
	metricOps = func(op string) *obs.Counter {
		return obs.NewCounter("privedit_mediator_ops_total",
			"Requests mediated by the extension, by outcome.", "op", op)
	}
	metricOpFull    = metricOps("full_encrypt")
	metricOpDelta   = metricOps("delta_transform")
	metricOpLoad    = metricOps("load_decrypt")
	metricOpPass    = metricOps("pass")
	metricOpBlocked = metricOps("blocked")
	metricOpQueued  = metricOps("queued_save")

	metricEncryptLatency = obs.NewHistogram("privedit_mediator_encrypt_seconds",
		"Full-content encryption latency inside the extension (incl. stego), seconds.", obs.TimeBuckets)
	metricDecryptLatency = obs.NewHistogram("privedit_mediator_decrypt_seconds",
		"Document-load decryption latency inside the extension (incl. stego), seconds.", obs.TimeBuckets)
	metricPasswordFailures = obs.NewCounter("privedit_mediator_password_failures_total",
		"Failed attempts to derive or verify a document key (wrong password or provider error).")
	metricDeltaPlainBytes = obs.NewCounter("privedit_mediator_delta_plain_bytes_total",
		"Plaintext delta bytes submitted by the client application.")
	metricDeltaCipherBytes = obs.NewCounter("privedit_mediator_delta_cipher_bytes_total",
		"Ciphertext delta bytes actually sent to the server.")
	metricDeltaOpsCoalesced = obs.NewCounter("privedit_mediator_delta_ops_coalesced_total",
		"Plaintext delta operations folded away by coalescing before transform_delta.")

	metricQueueDepth = obs.NewGauge("privedit_mediator_queue_depth",
		"Saves currently queued in per-document pipelines across all sessions.")
	metricOTMerges = obs.NewCounter("privedit_mediator_ot_merges_total",
		"Rejected saves repaired by transforming the queue over server catch-up deltas.")
	metricConflictResyncs = obs.NewCounter("privedit_mediator_conflict_resyncs_total",
		"Rejected saves that fell back to a full refetch-and-resync.")
	metricQueueCoalesced = obs.NewCounter("privedit_mediator_queue_coalesced_total",
		"Saves folded into another pipeline queue entry: the tail at max depth, or the head at send.")
)

// PasswordProvider supplies the per-document password and encryption
// options, standing in for the prototype's password dialog (§IV-C).
type PasswordProvider func(docID string) (password string, opts core.Options, err error)

// StaticPassword is a PasswordProvider that uses one password and one set
// of options for every document.
func StaticPassword(password string, opts core.Options) PasswordProvider {
	return func(string) (string, core.Options, error) { return password, opts, nil }
}

// Stats counts what the extension did, for the evaluation harness. A
// snapshot is internally consistent: every field is read under one lock,
// so a reader never sees, say, a queued save whose queue-depth increment
// is missing. (The old per-field atomics were racy as a *set* once the
// async writer started mutating several fields per event.)
type Stats struct {
	FullEncrypts      int // docContents saves encrypted
	DeltasTransformed int // delta saves transformed
	LoadsDecrypted    int // document loads decrypted
	Passed            int // recognized non-content requests forwarded
	Blocked           int // unrecognized requests dropped
	PlainBytesIn      int // plaintext characters submitted by the client
	CipherBytesOut    int // ciphertext characters actually sent

	Retries          int // retry attempts beyond the first try
	RetryGiveups     int // round trips that exhausted the retry budget
	AdmissionRetries int // retries caused by typed admission rejects (429/503 + HeaderRetryable)
	BreakerTrips  int // per-document breakers tripped open (closed→open)
	DegradedSaves int // saves absorbed locally while the breaker was open
	DegradedLoads int // loads served from local state while open
	Drains        int // queued degraded saves successfully replayed

	QueuedSaves     int // saves accepted into a per-document pipeline queue
	QueueCoalesced  int // saves folded into another queue entry (at max depth, or at send)
	QueueDepth      int // saves currently queued across all documents
	OTMerges        int // rejected saves repaired by delta.Transform catch-up
	ConflictResyncs int // rejected saves that fell back to a full resync
	DroppedSaves    int // queued saves abandoned after repeated rejection
}

// session is the per-document mediation state: one encryption editor plus
// the lock that serializes mediation for that document. core.Editor is not
// safe for concurrent use, and the editor's state must advance in the same
// order the server applies the document's updates, so the lock is held
// across the whole round trip — edits to the SAME document serialize
// end-to-end, edits to DISTINCT documents proceed fully in parallel.
type session struct {
	mu  sync.Mutex
	ed  *core.Editor // nil until first use
	brk breakerState // circuit breaker + degraded-mode shadow (resilience.go)
	pl  *plState     // pipelined save state, nil on the legacy sync path
}

// Extension is the mediating extension. Install it as the Transport of the
// client application's http.Client. It is safe for concurrent use and
// manages any number of per-document sessions behind one RoundTripper.
type Extension struct {
	base      http.RoundTripper
	passwords PasswordProvider
	mitigator *covert.Mitigator
	useStego  bool
	res       *resilience // nil = legacy fail-fast mediation
	pipeDepth int         // >0 = pipelined async saves, max queue depth
	saveToken uint64      // random per-extension idempotency-token prefix

	mu       sync.RWMutex
	sessions map[string]*session
	rngMu    sync.Mutex // guards res.rng (backoff jitter)

	statsMu sync.Mutex
	stats   Stats
}

var _ http.RoundTripper = (*Extension)(nil)

// Option customizes an Extension.
type Option func(*Extension)

// WithStego stores documents as word prose instead of Base32 (the §VI
// "availability" extension), so a provider scanning for
// encrypted-looking content finds none. See internal/stego for the
// honest limits of this.
func WithStego() Option {
	return func(e *Extension) { e.useStego = true }
}

// WithMitigator installs the §VI-B covert-channel countermeasures
// (padding, delay, delta canonicalization).
func WithMitigator(m *covert.Mitigator) Option {
	return func(e *Extension) { e.mitigator = m }
}

// DefaultInflight is the pipeline queue depth WithPipeline(0) selects.
const DefaultInflight = 4

// WithPipeline switches save mediation from the legacy synchronous path
// to pipelined asynchronous saves: updates are acknowledged locally and
// enqueued into a per-document ordered queue that a writer goroutine
// drains in the background, transforming each queued delta against any
// server updates that interleaved (OT-first merge) instead of resyncing.
// depth bounds the per-document queue (0 selects DefaultInflight); once
// full, new saves coalesce into the queue tail so local editing never
// blocks on a slow backend. depth does not multiply round trips: each
// writer turn composes everything queued into one save.
func WithPipeline(depth int) Option {
	return func(e *Extension) {
		if depth <= 0 {
			depth = DefaultInflight
		}
		e.pipeDepth = depth
	}
}

// New builds an extension. base is the underlying transport (nil for
// http.DefaultTransport). Covert-channel mitigation, stego encoding,
// resilience, and save pipelining are all options.
func New(base http.RoundTripper, passwords PasswordProvider, opts ...Option) *Extension {
	if base == nil {
		base = http.DefaultTransport
	}
	e := &Extension{
		base:      base,
		passwords: passwords,
		sessions:  make(map[string]*session),
	}
	for _, opt := range opts {
		if opt != nil {
			opt(e)
		}
	}
	if e.pipeDepth > 0 {
		e.saveToken = crypt.CryptoNonceSource{}.Nonce64()
	}
	return e
}

// NewWithMitigator builds an extension with a positional mitigator.
//
// Deprecated: use New with the WithMitigator option.
func NewWithMitigator(base http.RoundTripper, passwords PasswordProvider, mitigator *covert.Mitigator, opts ...Option) *Extension {
	if mitigator != nil {
		opts = append([]Option{WithMitigator(mitigator)}, opts...)
	}
	return New(base, passwords, opts...)
}

// Client returns an http.Client routed through the extension.
func (e *Extension) Client() *http.Client {
	return &http.Client{Transport: e}
}

// bump applies a mutation to the live stats under the stats lock, so
// multi-field updates (queue depth + queued count, say) stay atomic as a
// set with respect to Stats().
func (e *Extension) bump(f func(*Stats)) {
	e.statsMu.Lock()
	f(&e.stats)
	e.statsMu.Unlock()
}

// Stats returns a consistent snapshot of the extension's counters.
func (e *Extension) Stats() Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats
}

// SessionCount returns the number of per-document sessions currently
// managed.
func (e *Extension) SessionCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.sessions)
}

// sessionFor returns the document's session, creating the (empty) session
// record if needed. The editor inside is created lazily under the
// session's own lock so the extension-wide map lock is never held during
// key derivation or encryption.
func (e *Extension) sessionFor(docID string) *session {
	e.mu.RLock()
	sess := e.sessions[docID]
	e.mu.RUnlock()
	if sess != nil {
		return sess
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if sess = e.sessions[docID]; sess == nil {
		sess = &session{}
		e.sessions[docID] = sess
	}
	return sess
}

// editorLocked returns the session's editor, creating fresh encryption
// state on first use. Callers must hold sess.mu.
func (e *Extension) editorLocked(sess *session, docID string) (*core.Editor, error) {
	if sess.ed != nil {
		return sess.ed, nil
	}
	password, opts, err := e.passwords(docID)
	if err != nil {
		metricPasswordFailures.Inc()
		return nil, err
	}
	ed, err := core.NewEditor(password, opts)
	if err != nil {
		return nil, err
	}
	sess.ed = ed
	return ed, nil
}

// openEditorLocked (re)opens the encryption state from a server-held
// container. Callers must hold sess.mu.
func (e *Extension) openEditorLocked(sess *session, docID, transport string) (*core.Editor, error) {
	password, opts, err := e.passwords(docID)
	if err != nil {
		metricPasswordFailures.Inc()
		return nil, err
	}
	ed, err := core.OpenWith(password, transport, core.Options{Workers: opts.Workers})
	if err != nil {
		if errors.Is(err, core.ErrWrongPassword) {
			metricPasswordFailures.Inc()
		}
		return nil, err
	}
	sess.ed = ed
	return ed, nil
}

// resyncLocked re-fetches the server's ciphertext and re-opens the
// session's editor. It is called after a failed update mediation: by then
// the editor may have advanced past a save the server rejected (a version
// conflict from a concurrent session), and transforming the next delta
// against diverged state would corrupt the stored ciphertext. Re-opening
// before the session lock is released closes that window. On any failure
// the editor is dropped instead, so the next load rebuilds it.
// Callers must hold sess.mu.
func (e *Extension) resyncLocked(sess *session, docID string, req *http.Request) {
	_, _ = e.refetchLocked(sess, docID, req)
}

// refetchLocked is resyncLocked with the outcome reported: it returns the
// server's current document version (for the drain path's optimistic
// concurrency check) and any fetch/open error. The editor is dropped
// first, so on failure the next load rebuilds it from the server.
// Callers must hold sess.mu.
func (e *Extension) refetchLocked(sess *session, docID string, req *http.Request) (int, error) {
	sess.ed = nil
	rctx, rsp := trace.Start(req.Context(), trace.SpanResync)
	defer rsp.End()
	u := *req.URL
	u.Path = gdocs.PathDoc
	u.RawQuery = url.Values{gdocs.FieldDocID: {docID}}.Encode()
	resp, err := e.sendResilient(rctx, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	})
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("mediator: resync fetch: status %d", resp.StatusCode)
	}
	version, _ := strconv.Atoi(resp.Header.Get(gdocs.HeaderDocVersion))
	transport := string(raw)
	if e.useStego && transport != "" {
		if transport, err = stego.Decode(transport); err != nil {
			return 0, err
		}
	}
	if transport == "" {
		// Empty document: nothing to open; the editor stays nil.
		return version, nil
	}
	if _, err := e.openEditorLocked(sess, docID, transport); err != nil {
		return 0, err
	}
	return version, nil
}

// synthesize builds a local response without touching the network.
func synthesize(req *http.Request, status int, msg string) *http.Response {
	return &http.Response{
		StatusCode:    status,
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"text/plain"}},
		Body:          io.NopCloser(strings.NewReader(msg)),
		ContentLength: int64(len(msg)),
		Request:       req,
	}
}

func replaceBody(resp *http.Response, body string) {
	resp.Body = io.NopCloser(strings.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Del("Content-Length")
}

// RoundTrip mediates one request: the Go rendition of Figure 2's
// onModifyRequest. It is safe for concurrent use; requests for distinct
// documents are mediated in parallel, requests for the same document
// serialize on that document's session.
func (e *Extension) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		// Already cancelled or timed out: don't bother encrypting work the
		// caller has abandoned.
		return nil, err
	}
	switch {
	case req.Method == http.MethodPost && req.URL.Path == gdocs.PathDoc:
		return e.mediateUpdate(req)
	case req.Method == http.MethodGet && req.URL.Path == gdocs.PathDoc:
		return e.mediateLoad(req)
	case req.Method == http.MethodPost && req.URL.Path == gdocs.PathCreate:
		return e.mediateCreate(req)
	default:
		// "Drop all unknown requests."
		e.bump(func(s *Stats) { s.Blocked++ })
		metricOpBlocked.Inc()
		return synthesize(req, http.StatusForbidden, "privedit: request blocked by extension"), nil
	}
}

// forward sends a rewritten form body to the server, through the retry
// layer when resilience is enabled. The request is rebuilt per attempt so
// every retry carries a fresh body.
func (e *Extension) forward(req *http.Request, form url.Values) (*http.Response, error) {
	body := form.Encode()
	return e.sendResilient(req.Context(), func(ctx context.Context) (*http.Request, error) {
		clone := req.Clone(ctx)
		clone.Body = io.NopCloser(strings.NewReader(body))
		clone.ContentLength = int64(len(body))
		clone.Header = req.Header.Clone()
		clone.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		return clone, nil
	})
}

func (e *Extension) mediateCreate(req *http.Request) (*http.Response, error) {
	form, err := readForm(req)
	if err != nil {
		return synthesize(req, http.StatusForbidden, "privedit: unreadable create request"), nil
	}
	docID := form.Get(gdocs.FieldDocID)
	ctx, op := trace.Start(req.Context(), trace.SpanMediateCreate)
	defer op.End()
	op.Annotate("doc", docID)
	req = req.WithContext(ctx)
	sess := e.sessionFor(docID)
	sess.mu.Lock()
	_, err = e.editorLocked(sess, docID)
	sess.mu.Unlock()
	if err != nil {
		return synthesize(req, http.StatusForbidden, "privedit: "+err.Error()), nil
	}
	e.bump(func(s *Stats) { s.Passed++ })
	metricOpPass.Inc()
	resp, err := e.forward(req, form)
	if err == nil && resp.StatusCode == http.StatusOK && e.pipeDepth > 0 {
		// Pipelined mode: a successful create establishes the session's
		// server lineage (empty document at version 0) up front, so the
		// first save can already be queued and acknowledged locally.
		sess.mu.Lock()
		if sess.pl == nil {
			e.pipeBootstrapLocked(sess, docID, req.URL, "", "", 0)
		}
		sess.mu.Unlock()
	}
	return resp, err
}

func (e *Extension) mediateUpdate(req *http.Request) (*http.Response, error) {
	form, err := readForm(req)
	if err != nil {
		return synthesize(req, http.StatusForbidden, "privedit: unreadable update request"), nil
	}
	docID := form.Get(gdocs.FieldDocID)
	ctx, op := trace.Start(req.Context(), trace.SpanMediateUpdate)
	defer op.End()
	op.Annotate("doc", docID)
	req = req.WithContext(ctx)

	if e.pipeDepth > 0 {
		return e.pipeUpdate(req, op, form, docID)
	}

	// The session lock is held across the whole round trip, not just the
	// crypto: the editor's ciphertext state must advance in the same order
	// the server applies this document's updates, and releasing the lock
	// between transform and forward would let a second writer interleave.
	switch {
	case form.Has(gdocs.FieldDocContents): // full update
		sess := e.sessionFor(docID)
		sess.mu.Lock()
		defer sess.mu.Unlock()
		if e.gateLocked(sess, docID, req) {
			return e.degradeUpdateLocked(sess, req, form)
		}
		ed, err := e.editorLocked(sess, docID)
		if err != nil {
			return synthesize(req, http.StatusForbidden, "privedit: "+err.Error()), nil
		}
		content := form.Get(gdocs.FieldDocContents)
		_, esp := trace.Start(ctx, trace.SpanEncrypt)
		defer esp.End() // idempotent: backstop for the error returns below
		sp := metricEncryptLatency.Start()
		ctxt, err := ed.Encrypt(content)
		if err != nil {
			return synthesize(req, http.StatusForbidden, "privedit: encrypt: "+err.Error()), nil
		}
		if e.useStego {
			if ctxt, err = stego.Encode(ctxt); err != nil {
				return synthesize(req, http.StatusForbidden, "privedit: stego: "+err.Error()), nil
			}
		}
		sp.EndExemplar(op.TraceID())
		esp.End()
		form.Set(gdocs.FieldDocContents, ctxt)
		e.applyPadding(form, len(ctxt))
		e.applyDelay()
		e.bump(func(s *Stats) {
			s.FullEncrypts++
			s.PlainBytesIn += len(content)
			s.CipherBytesOut += len(ctxt)
		})
		metricOpFull.Inc()
		sctx, ssp := trace.Start(ctx, trace.SpanSave)
		resp, err := e.mediateAck(req.WithContext(sctx), form)
		ssp.End()
		e.recordLocked(req.Context(), sess, !infraFailure(resp, err))
		if err != nil || resp.StatusCode != http.StatusOK {
			if resp != nil && resp.StatusCode == http.StatusConflict {
				op.Annotate("conflict", "1")
			}
			e.resyncLocked(sess, docID, req)
		}
		return resp, err

	case form.Has(gdocs.FieldDelta): // incremental update
		e.mu.RLock()
		sess := e.sessions[docID]
		e.mu.RUnlock()
		if sess == nil {
			return synthesize(req, http.StatusForbidden, "privedit: delta for unknown document"), nil
		}
		sess.mu.Lock()
		defer sess.mu.Unlock()
		if e.gateLocked(sess, docID, req) {
			return e.degradeUpdateLocked(sess, req, form)
		}
		ed := sess.ed
		if ed == nil {
			return synthesize(req, http.StatusForbidden, "privedit: delta for unknown document"), nil
		}
		wire := form.Get(gdocs.FieldDelta)
		_, tsp := trace.Start(ctx, trace.SpanTransform)
		defer tsp.End() // idempotent: backstop for the error returns below
		pd, err := delta.Parse(wire)
		if err != nil {
			return synthesize(req, http.StatusForbidden, "privedit: bad delta: "+err.Error()), nil
		}
		// Coalesce bursts of adjacent edits before transforming: a run of k
		// single-character insertions becomes one insert, so transform_delta
		// performs one splice and emits one small ciphertext delta.
		if before := len(pd); before > 1 {
			pd = pd.Coalesce()
			if dropped := before - len(pd); dropped > 0 {
				metricDeltaOpsCoalesced.Add(int64(dropped))
			}
		}
		if e.mitigator != nil {
			pd, err = e.mitigator.CanonicalDelta(ed.Plaintext(), pd)
			if err != nil {
				return synthesize(req, http.StatusForbidden, "privedit: canonicalize: "+err.Error()), nil
			}
		}
		cd, err := ed.TransformDeltaOps(pd)
		if err != nil {
			// The usual cause is a delta computed against a stale plaintext
			// (a concurrent session advanced the document); drop back to the
			// server's state so later transforms stay aligned with it.
			tsp.Annotate("error", "transform_delta")
			tsp.End()
			e.resyncLocked(sess, docID, req)
			return synthesize(req, http.StatusForbidden, "privedit: transform_delta: "+err.Error()), nil
		}
		if e.useStego {
			if cd, err = stego.TransformDelta(cd); err != nil {
				return synthesize(req, http.StatusForbidden, "privedit: stego: "+err.Error()), nil
			}
		}
		tsp.End()
		cwire := cd.String()
		form.Set(gdocs.FieldDelta, cwire)
		e.applyPadding(form, len(cwire))
		e.applyDelay()
		e.bump(func(s *Stats) {
			s.DeltasTransformed++
			s.PlainBytesIn += len(wire)
			s.CipherBytesOut += len(cwire)
		})
		metricOpDelta.Inc()
		metricDeltaPlainBytes.Add(int64(len(wire)))
		metricDeltaCipherBytes.Add(int64(len(cwire)))
		sctx, ssp := trace.Start(ctx, trace.SpanSave)
		resp, err := e.mediateAck(req.WithContext(sctx), form)
		ssp.End()
		e.recordLocked(req.Context(), sess, !infraFailure(resp, err))
		if err != nil || resp.StatusCode != http.StatusOK {
			if resp != nil && resp.StatusCode == http.StatusConflict {
				op.Annotate("conflict", "1")
			}
			e.resyncLocked(sess, docID, req)
		}
		return resp, err

	default:
		e.bump(func(s *Stats) { s.Blocked++ })
		metricOpBlocked.Inc()
		return synthesize(req, http.StatusForbidden, "privedit: unrecognized update"), nil
	}
}

// mediateAck forwards an update and blanks the content echo in the Ack:
// "the client works flawlessly when the values are replaced with an empty
// string for contentFromServer, and 0 for contentFromServerHash" (§IV-A).
func (e *Extension) mediateAck(req *http.Request, form url.Values) (*http.Response, error) {
	resp, err := e.forward(req, form)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("mediator: read ack: %w", err)
	}
	ack, err := gdocs.ParseAck(string(raw))
	if err != nil {
		return nil, fmt.Errorf("mediator: parse ack: %w", err)
	}
	ack.ContentFromServer = ""
	ack.ContentFromServerHash = 0
	replaceBody(resp, ack.Encode())
	return resp, nil
}

// mediateLoad forwards a document load and decrypts the returned container
// so the client application renders plaintext.
func (e *Extension) mediateLoad(req *http.Request) (*http.Response, error) {
	docID := req.URL.Query().Get(gdocs.FieldDocID)
	ctx, op := trace.Start(req.Context(), trace.SpanMediateLoad)
	defer op.End()
	op.Annotate("doc", docID)
	req = req.WithContext(ctx)
	if e.pipeDepth > 0 {
		return e.pipeLoad(req, op, docID)
	}
	if q := req.URL.Query(); q.Has(gdocs.FieldSince) {
		// The synchronous path decrypts whole containers; a delta catch-up
		// response would be ciphertext deltas it cannot serve. Ask the
		// server for full content instead.
		u2 := *req.URL
		q.Del(gdocs.FieldSince)
		u2.RawQuery = q.Encode()
		req.URL = &u2
	}
	// The session lock must cover the fetch itself, not just the decrypt:
	// re-opening the editor from a snapshot that predates a concurrent save
	// would silently rewind the mediation state behind the server's back.
	sess := e.sessionFor(docID)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if e.gateLocked(sess, docID, req) {
		return e.degradeLoadLocked(sess, req)
	}
	lctx, lsp := trace.Start(ctx, trace.SpanLoad)
	defer lsp.End() // idempotent: backstop for the error returns below
	resp, err := e.sendResilient(lctx, func(ctx context.Context) (*http.Request, error) {
		return req.Clone(ctx), nil
	})
	e.recordLocked(ctx, sess, !infraFailure(resp, err))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("mediator: read load: %w", err)
	}
	lsp.End()
	transport := string(raw)
	_, dsp := trace.Start(ctx, trace.SpanDecrypt)
	defer dsp.End() // idempotent: backstop for the error returns below
	sp := metricDecryptLatency.Start()
	if e.useStego && transport != "" {
		decoded, err := stego.Decode(transport)
		if err != nil {
			return synthesize(req, http.StatusForbidden, "privedit: stego decode: "+err.Error()), nil
		}
		transport = decoded
	}
	if transport == "" {
		// Brand-new document: nothing to decrypt, but the session needs
		// fresh encryption state.
		if _, err := e.editorLocked(sess, docID); err != nil {
			return synthesize(req, http.StatusForbidden, "privedit: "+err.Error()), nil
		}
		replaceBody(resp, "")
		return resp, nil
	}
	ed, err := e.openEditorLocked(sess, docID, transport)
	if err != nil {
		return synthesize(req, http.StatusForbidden, "privedit: open: "+err.Error()), nil
	}
	sp.EndExemplar(op.TraceID())
	dsp.End()
	e.bump(func(s *Stats) { s.LoadsDecrypted++ })
	metricOpLoad.Inc()
	replaceBody(resp, ed.Plaintext())
	return resp, nil
}

func (e *Extension) applyPadding(form url.Values, payloadLen int) {
	if e.mitigator == nil {
		return
	}
	if pad := e.mitigator.PadFor(payloadLen); pad != "" {
		form.Set("pad", pad)
	}
}

func (e *Extension) applyDelay() {
	if e.mitigator != nil {
		e.mitigator.Delay()
	}
}

func readForm(req *http.Request) (url.Values, error) {
	if req.Body == nil {
		return url.Values{}, nil
	}
	raw, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	return url.ParseQuery(string(raw))
}
