package main

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"privedit/internal/gdocs"
	"privedit/internal/store"
)

// spanHeader carries a wire span id to the server seam, so server spans
// join the operation that caused them.
const spanHeader = "X-Perfbench-Span"

// author is one editing loop: the seams of its extensions share the
// switch that turns tracing on for the unit (burst or open) it is running,
// and its wire counters.
type author struct {
	id     int8
	traced atomic.Bool
	n      wireCounts
	// caughtUp, if not nil, receives each catch-up GET when its response
	// body has been read.
	caughtUp chan catchupDone
}

// catchupDone is one finished catch-up GET.
type catchupDone struct {
	doc string
	at  time.Time
}

// wireCounts are the base-transport counters every run keeps, traced or
// not: the cold-open fetch guard reads them per operation.
type wireCounts struct {
	saves      atomic.Int64 // POST /Doc sent
	conflicts  atomic.Int64 // POST /Doc answered 409
	fetches    atomic.Int64 // GET /Doc for the whole document
	catchups   atomic.Int64 // GET /Doc?since=V
	saveBytes  atomic.Int64 // request body bytes of POST /Doc
	fetchBytes atomic.Int64 // response body bytes of whole-document GETs
}

// wireSeam wraps the base transport under one author's extension: the
// seam between the mediator's writer and the network. It counts requests,
// checks every request body for leaked plaintext and, in traced units,
// records a span from request start to response body close.
type wireSeam struct {
	next  http.RoundTripper
	who   *author
	rec   *recorder // nil in untraced runs
	leaks *leakCheck
}

// classify names a protocol request; doc is its document id.
func classify(req *http.Request, form url.Values) (rk reqKind, doc string) {
	switch {
	case req.URL.Path == gdocs.PathDoc && req.Method == http.MethodGet:
		q := req.URL.Query()
		if q.Has(gdocs.FieldSince) {
			return rCatchup, q.Get(gdocs.FieldDocID)
		}
		return rFetch, q.Get(gdocs.FieldDocID)
	case req.URL.Path == gdocs.PathDoc:
		return rSave, form.Get(gdocs.FieldDocID)
	case req.URL.Path == gdocs.PathCreate:
		return rCreate, form.Get(gdocs.FieldDocID)
	}
	return rNone, ""
}

func (w *wireSeam) RoundTrip(req *http.Request) (*http.Response, error) {
	var (
		form     url.Values
		reqBytes int64
	)
	if req.Body != nil && req.Body != http.NoBody {
		// Scan and count the body that is sent, not what GetBody would
		// rebuild: a request cloned from the client's keeps the client's
		// GetBody. The next transport gets an equivalent body.
		raw, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(raw))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(raw)), nil }
		req.ContentLength = int64(len(raw))
		reqBytes = int64(len(raw))
		if form, err = url.ParseQuery(string(raw)); err != nil {
			return nil, err
		}
		for _, vs := range form {
			for _, v := range vs {
				w.leaks.scan(v)
			}
		}
	}
	rk, doc := classify(req, form)
	switch rk {
	case rSave:
		w.who.n.saves.Add(1)
		w.who.n.saveBytes.Add(reqBytes)
	case rFetch:
		w.who.n.fetches.Add(1)
	case rCatchup:
		w.who.n.catchups.Add(1)
	}
	id := int32(-1)
	if w.rec != nil && w.who.traced.Load() {
		id = w.rec.begin(span{kind: kWire, req: rk, author: w.who.id, parent: spanFrom(req.Context()), doc: doc, bytes: reqBytes})
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(int(id)))
	}
	resp, err := w.next.RoundTrip(req)
	if err != nil {
		if id >= 0 {
			w.rec.finish(id, 0, 0)
		}
		return nil, err
	}
	if rk == rSave && resp.StatusCode == http.StatusConflict {
		w.who.n.conflicts.Add(1)
	}
	status := resp.StatusCode
	resp.Body = &watchedBody{ReadCloser: resp.Body, done: func(n int64) {
		switch {
		case rk == rFetch:
			w.who.n.fetchBytes.Add(n)
		case rk == rCatchup && w.who.caughtUp != nil:
			select {
			case w.who.caughtUp <- catchupDone{doc: doc, at: time.Now()}:
			default:
			}
		}
		if id >= 0 {
			if rk != rFetch {
				n = 0 // keep the request bytes of a save
			}
			w.rec.finish(id, status, n)
		}
	}}
	return resp, nil
}

// watchedBody counts the bytes read from a response body and reports them
// once, at EOF or Close, whichever comes first.
type watchedBody struct {
	io.ReadCloser
	n    int64
	done func(n int64)
}

func (b *watchedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.report()
	}
	return n, err
}

func (b *watchedBody) Close() error {
	b.report()
	return b.ReadCloser.Close()
}

func (b *watchedBody) report() {
	if b.done != nil {
		b.done(b.n)
		b.done = nil
	}
}

// extSeam wraps an author's extension: the seam between the client
// application and the mediator. It records spans in traced units only.
type extSeam struct {
	next http.RoundTripper
	who  *author
	rec  *recorder
}

func (m *extSeam) RoundTrip(req *http.Request) (*http.Response, error) {
	if !m.who.traced.Load() {
		return m.next.RoundTrip(req)
	}
	rk, _ := classify(req, nil)
	id := m.rec.begin(span{kind: kMediator, req: rk, author: m.who.id, parent: spanFrom(req.Context())})
	resp, err := m.next.RoundTrip(req.WithContext(withSpan(req.Context(), id)))
	status := 0
	if err == nil {
		status = resp.StatusCode
	}
	m.rec.finish(id, status, 0)
	return resp, err
}

// serverSeam wraps the server handler. It records a span for every
// request whose wire span asked for one.
type serverSeam struct {
	next http.Handler
	rec  *recorder
}

func (s *serverSeam) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := r.Header.Get(spanHeader)
	if h == "" {
		s.next.ServeHTTP(w, r)
		return
	}
	parent, err := strconv.Atoi(h)
	if err != nil {
		http.Error(w, "perfbench: bad span header", http.StatusBadRequest)
		return
	}
	sp := span{kind: kServer, parent: int32(parent), start: s.rec.now(), version: -1}
	var form url.Values
	if r.Method == http.MethodPost {
		// The server parses the form itself; ParseForm is idempotent, so
		// this moves that work, it does not add to it.
		if err := r.ParseForm(); err == nil {
			form = r.PostForm
			if v, err := strconv.Atoi(form.Get(gdocs.FieldVersion)); err == nil {
				sp.version = v
			}
		}
	}
	sp.req, sp.doc = classify(r, form)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.next.ServeHTTP(sw, r)
	sp.end, sp.status = s.rec.now(), sw.status
	s.rec.add(sp)
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// backendSeam wraps the durable store under the server: every Get and Put
// becomes a span, linked to its server span after the run.
type backendSeam struct {
	*store.Disk
	rec *recorder
}

var _ gdocs.Backend = (*backendSeam)(nil)

func (b *backendSeam) Get(docID string) (string, int, bool, error) {
	start := b.rec.now()
	content, version, ok, err := b.Disk.Get(docID)
	b.rec.add(span{kind: kStore, req: rGet, parent: -1, doc: docID, start: start, end: b.rec.now(), bytes: int64(len(content)), version: version})
	return content, version, ok, err
}

func (b *backendSeam) Put(docID, content string, version int) error {
	start := b.rec.now()
	err := b.Disk.Put(docID, content, version)
	b.rec.add(span{kind: kStore, req: rPut, parent: -1, doc: docID, start: start, end: b.rec.now(), bytes: int64(len(content)), version: version})
	return err
}

// leakCheck looks for typed plaintext in text the untrusted side sees. A
// hit is a run of at least leakRun characters that also occurs in the
// plaintext: either a window recorded while typing, or a substring of a
// document the workload wrote, which inPlain answers.
type leakCheck struct {
	mu      sync.Mutex
	windows map[string]struct{}
	inPlain func(s string) bool
	hits    atomic.Int64
}

// leakRun is the shortest plaintext run the check treats as a leak.
const leakRun = 12

func newLeakCheck(inPlain func(string) bool) *leakCheck {
	return &leakCheck{windows: map[string]struct{}{}, inPlain: inPlain}
}

// addRun records every leakRun-character window of a typed run.
func (l *leakCheck) addRun(run string) {
	if len(run) < leakRun {
		return
	}
	l.mu.Lock()
	for i := 0; i+leakRun <= len(run); i++ {
		l.windows[run[i:i+leakRun]] = struct{}{}
	}
	l.mu.Unlock()
}

// scan counts a hit if s holds a plaintext run. Ciphertext is Base32
// (upper case and digits), so only runs of the plaintext alphabet, which
// are rare, are looked up.
func (l *leakCheck) scan(s string) {
	start := -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && isPlainByte(s[i]) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 && i-start >= leakRun && l.runLeaks(s[start:i]) {
			l.hits.Add(1)
			return
		}
		start = -1
	}
}

func (l *leakCheck) runLeaks(run string) bool {
	for i := 0; i+leakRun <= len(run); i++ {
		w := run[i : i+leakRun]
		l.mu.Lock()
		_, ok := l.windows[w]
		l.mu.Unlock()
		if ok || (l.inPlain != nil && l.inPlain(w)) {
			return true
		}
	}
	return false
}
