package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"privedit/internal/core"
	"privedit/internal/gdocs"
	"privedit/internal/mediator"
	"privedit/internal/store"
)

// Configuration every workload shares; the fingerprint reports it.
const (
	password      = "perfbench password"
	pipelineDepth = 4
	blockChars    = 8
	flushTimeout  = 30 * time.Second
	cacheShare    = 6 // cold-open server cache budget: stored bytes / cacheShare
)

var docOptions = core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: blockChars}

// rig is the system under test, in process: a gdocs.Server over a
// store.Disk (default SyncAlways group commit) behind a loopback HTTP
// server, and the transport the authors' extensions share. In traced runs
// the server and its backend sit inside the benchmark's seams.
type rig struct {
	dir   string
	disk  *store.Disk
	srv   atomic.Pointer[http.Handler]
	hs    *httptest.Server
	tr    *http.Transport
	rec   *recorder // nil in untraced runs
	leaks *leakCheck
}

func openRig(dir string, rec *recorder, leaks *leakCheck) (*rig, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("create data dir: %w", err)
	}
	disk, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	g := &rig{dir: dir, disk: disk, rec: rec, leaks: leaks}
	g.serve(0)
	g.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*g.srv.Load()).ServeHTTP(w, r)
	}))
	n := runtime.NumCPU()
	g.tr = &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	return g, nil
}

// serve puts a fresh gdocs.Server over the store, with a resident cache
// budget of cacheBytes (0: everything resident). Swapping servers models
// a restart: the new one starts with a cold cache.
func (g *rig) serve(cacheBytes int64) {
	var backend gdocs.Backend = g.disk
	if g.rec != nil {
		backend = &backendSeam{Disk: g.disk, rec: g.rec}
	}
	var h http.Handler = gdocs.NewServer(gdocs.WithBackend(backend), gdocs.WithCacheBytes(cacheBytes))
	if g.rec != nil {
		h = &serverSeam{next: h, rec: g.rec}
	}
	g.srv.Store(&h)
}

// close stops the HTTP server, closes the store and removes its files.
// Every extension session must be closed first.
func (g *rig) close() error {
	g.hs.Close()
	g.tr.CloseIdleConnections()
	err := g.disk.Close()
	if rerr := os.RemoveAll(g.dir); err == nil {
		err = rerr
	}
	return err
}

// editor is one browser: a gdocs client application above a fresh
// mediating extension (pipelined, RPC scheme, b=8), with the benchmark's
// seams on either side of the extension.
type editor struct {
	who   *author
	ext   *mediator.Extension
	httpc *http.Client
}

func (g *rig) newEditor(who *author) *editor {
	wire := &wireSeam{next: g.tr, who: who, rec: g.rec, leaks: g.leaks}
	ext := mediator.New(wire, mediator.StaticPassword(password, docOptions), mediator.WithPipeline(pipelineDepth))
	var rt http.RoundTripper = ext
	if g.rec != nil {
		rt = &extSeam{next: ext, who: who, rec: g.rec}
	}
	return &editor{who: who, ext: ext, httpc: &http.Client{Transport: rt}}
}

func (g *rig) client(ed *editor, docID string) *gdocs.Client {
	return gdocs.NewClient(ed.httpc, g.hs.URL, docID)
}

// flush waits for docID's pipeline in ed to drain.
func (ed *editor) flush(docID string) error {
	ctx, cancel := context.WithTimeout(context.Background(), flushTimeout)
	defer cancel()
	return ed.ext.Session(docID).Flush(ctx)
}

// publish creates docID holding text through ed and waits until the
// server holds it durably.
func (g *rig) publish(ed *editor, docID, text string) (*gdocs.Client, error) {
	c := g.client(ed, docID)
	if err := c.Create(); err != nil {
		return nil, fmt.Errorf("create %s: %w", docID, err)
	}
	c.SetText(text)
	if err := c.Sync(); err != nil {
		return nil, fmt.Errorf("first save of %s: %w", docID, err)
	}
	if err := ed.flush(docID); err != nil {
		return nil, fmt.Errorf("flush %s: %w", docID, err)
	}
	return c, nil
}

// stored returns the ciphertext the store holds for docID and checks it
// for leaked plaintext.
func (g *rig) stored(docID string) (string, error) {
	content, _, ok, err := g.disk.Get(docID)
	if err != nil {
		return "", fmt.Errorf("read stored %s: %w", docID, err)
	}
	if !ok {
		return "", fmt.Errorf("stored %s: missing", docID)
	}
	g.leaks.scan(content)
	return content, nil
}

// storedPlain decrypts the stored ciphertext of docID.
func (g *rig) storedPlain(docID string) (cipher, plain string, err error) {
	cipher, err = g.stored(docID)
	if err != nil {
		return "", "", err
	}
	plain, err = core.DecryptWith(password, cipher, core.Options{})
	if err != nil {
		return "", "", fmt.Errorf("decrypt stored %s: %w", docID, err)
	}
	return cipher, plain, nil
}
