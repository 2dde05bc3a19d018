package mediator

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privedit/internal/core"
	"privedit/internal/crypt"
	"privedit/internal/gdocs"
	"privedit/internal/stego"
)

// decryptStored reads the server's container for docID and decrypts it,
// decoding the stego prose layer first when the session used it.
func decryptStored(t *testing.T, server *gdocs.Server, docID, pw string, stegoOn bool) string {
	t.Helper()
	stored, _, err := server.Content(context.Background(), docID)
	if err != nil {
		t.Fatalf("server content: %v", err)
	}
	if stegoOn {
		transport, err := stego.Decode(stored)
		if err != nil {
			t.Fatalf("stego decode: %v", err)
		}
		stored = transport
	}
	plain, err := core.Decrypt(pw, stored)
	if err != nil {
		t.Fatalf("decrypt stored container: %v", err)
	}
	return plain
}

// pipeWorld is one trial's cast: a server plus three writers, each with
// their own extension (sharing only the password) and client.
type pipeWorld struct {
	server  *gdocs.Server
	ts      *httptest.Server
	exts    [3]*Extension
	clients [3]*gdocs.Client
	gates   [3]*gatedTransport
}

func newPipeWorld(t *testing.T, docID string, seed int64, stegoOn bool, depth int) *pipeWorld {
	t.Helper()
	w := &pipeWorld{server: gdocs.NewServer()}
	w.ts = httptest.NewServer(w.server)
	t.Cleanup(w.ts.Close)
	for i := range w.exts {
		opts := core.Options{
			Scheme:     core.ConfidentialityIntegrity,
			BlockChars: 8,
			Nonces:     crypt.NewSeededNonceSource(uint64(seed) + uint64(i)),
		}
		extOpts := []Option{}
		if stegoOn {
			extOpts = append(extOpts, WithStego())
		}
		if depth > 0 {
			extOpts = append(extOpts, WithPipeline(depth))
		}
		w.gates[i] = &gatedTransport{base: w.ts.Client().Transport, arrived: make(chan struct{}, 1)}
		w.exts[i] = New(w.gates[i], StaticPassword("fuzz-pw", opts), extOpts...)
		w.clients[i] = gdocs.NewClient(w.exts[i].Client(), w.ts.URL, docID)
	}
	return w
}

// TestPipelineConvergesWithResyncOracle is the property fuzz for the
// OT-first save path: three writers make conflicting edits through
// pipelined extensions (transform-merge on rejected saves), and the
// converged document must be byte-identical to a resync oracle — the
// same edit script pushed through the legacy synchronous path, where
// every conflict is resolved by the client's fetch-merge-retry Sync.
// The matrix covers both codecs and both queue regimes: depth 1 forces
// every burst to coalesce through delta.Compose at enqueue, depth 8 keeps
// many entries queued so the writer composes them at send.
func TestPipelineConvergesWithResyncOracle(t *testing.T) {
	cases := []struct {
		name  string
		stego bool
		depth int
	}{
		{"base32/coalescing", false, 1},
		{"base32/deep-queue", false, 8},
		{"stego/coalescing", true, 1},
		{"stego/deep-queue", true, 8},
	}
	for ci, tc := range cases {
		tc, ci := tc, ci
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 8; trial++ {
				runOracleTrial(t, tc.stego, tc.depth, int64(1000*ci+trial))
			}
		})
	}
}

// writerPools gives each fuzz writer a private pool of characters,
// disjoint from the others and from the base document; every insert
// consumes one FRESH character, so no character ever appears twice in
// the document. That keeps every Myers diff exactly unambiguous, which
// is what makes the two worlds comparable byte-for-byte: with repeated
// characters, an equivalent diff can slide an edit across equal
// neighbours, and transforming equivalent-but-shifted deltas yields
// different — equally valid — merge orders. With all-distinct content,
// any divergence is a genuine transform bug.
var writerPools = [3]string{"abcdefghijkl", "mnopqrstuvwx", "ABCDEFGHIJKL"}

func runOracleTrial(t *testing.T, stegoOn bool, depth int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	docID := fmt.Sprintf("fuzz-doc-%d", seed)
	pipe := newPipeWorld(t, docID, seed, stegoOn, depth)
	oracle := newPipeWorld(t, docID, seed+100, stegoOn, 0) // legacy resync path

	// Seed both worlds with the same base document: every character
	// distinct, sharing nothing with the writers' pools.
	const base = "MNOPQRSTUVWXYZ0123456789#%!?"
	for _, w := range []*pipeWorld{pipe, oracle} {
		if err := w.clients[0].Create(); err != nil {
			t.Fatalf("seed %d: create: %v", seed, err)
		}
		w.clients[0].SetText(base)
		if err := w.clients[0].Save(); err != nil {
			t.Fatalf("seed %d: base save: %v", seed, err)
		}
	}
	flushCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := pipe.exts[0].Session(docID).Flush(flushCtx); err != nil {
		t.Fatalf("seed %d: base flush: %v", seed, err)
	}
	for i := 1; i < 3; i++ {
		if err := pipe.clients[i].Load(); err != nil {
			t.Fatalf("seed %d: pipe load %d: %v", seed, i, err)
		}
		if err := oracle.clients[i].Load(); err != nil {
			t.Fatalf("seed %d: oracle load %d: %v", seed, i, err)
		}
	}
	// Quiesce every mediator (Flush also consumes the idle catch-up the
	// loads just requested) so no background repair can reorder the
	// round's deterministic save interleaving.
	for i := range pipe.exts {
		if err := pipe.exts[i].Session(docID).Flush(flushCtx); err != nil {
			t.Fatalf("seed %d: quiesce %d: %v", seed, i, err)
		}
	}

	var tokens [3]int // per-writer unique-token counters
	for round := 0; round < 3; round++ {
		// Every writer edits from its round-start (stale) view, then
		// drains before the next writer drains — the writer order is a
		// random permutation per round, but identical in both worlds, so
		// arrival order at the server is deterministic and both worlds
		// transform against the same interleaved server deltas.
		for _, i := range rng.Perm(3) {
			// Gate the writer's backend for the whole burst: the queue
			// holds every save of the burst when the gate reopens, so the
			// conflict repair rebases the burst's composed net delta in
			// one transform — the same single-shot merge the oracle's
			// Sync computes. (Without the gate the writer races ahead,
			// rebasing a prefix of the burst against the server and the
			// remainder against the repaired lineage; both interleavings
			// converge, but iterated transforms may order position ties
			// differently than the one-shot merge, and the worlds would
			// disagree on adjacent concurrent inserts.)
			pipe.gates[i].close()
			edits := 1 + rng.Intn(3)
			for e := 0; e < edits; e++ {
				txt := pipe.clients[i].Text()
				if otxt := oracle.clients[i].Text(); otxt != txt {
					t.Fatalf("seed %d round %d: worlds diverged before edit: pipe %q oracle %q", seed, round, txt, otxt)
				}
				pos := rng.Intn(len(txt) + 1)
				del := 0
				if pos < len(txt) {
					del = rng.Intn(min(4, len(txt)-pos) + 1)
				}
				ins := string(writerPools[i][tokens[i]])
				tokens[i]++
				if err := pipe.clients[i].Replace(pos, del, ins); err != nil {
					t.Fatalf("seed %d: pipe replace: %v", seed, err)
				}
				// Pipelined saves local-ack instantly and enqueue; at
				// depth 1 every burst beyond the first save coalesces.
				if err := pipe.clients[i].Save(); err != nil {
					t.Fatalf("seed %d: pipe save: %v", seed, err)
				}
				if err := oracle.clients[i].Replace(pos, del, ins); err != nil {
					t.Fatalf("seed %d: oracle replace: %v", seed, err)
				}
			}
			pipe.gates[i].open()
			if err := pipe.exts[i].Session(docID).Flush(flushCtx); err != nil {
				t.Fatalf("seed %d round %d: flush writer %d: %v", seed, round, i, err)
			}
			// The oracle pushes the same burst as one delta; conflicts
			// resolve through the legacy fetch-merge-retry path.
			if err := oracle.clients[i].Sync(); err != nil {
				t.Fatalf("seed %d round %d: oracle sync %d: %v", seed, round, i, err)
			}
		}

		pipeText := convergePipe(t, pipe, docID, stegoOn, seed, round)
		for i := 0; i < 3; i++ {
			if err := oracle.clients[i].Refresh(); err != nil {
				t.Fatalf("seed %d round %d: oracle refresh %d: %v", seed, round, i, err)
			}
		}
		oracleText := oracle.clients[0].Text()
		for i := 1; i < 3; i++ {
			if got := oracle.clients[i].Text(); got != oracleText {
				t.Fatalf("seed %d round %d: oracle clients diverged: %q vs %q", seed, round, got, oracleText)
			}
		}
		if srv := decryptStored(t, oracle.server, docID, "fuzz-pw", stegoOn); srv != oracleText {
			t.Fatalf("seed %d round %d: oracle server %q != clients %q", seed, round, srv, oracleText)
		}
		if pipeText != oracleText {
			t.Fatalf("seed %d round %d: transform-merged text diverged from resync oracle:\n pipe   %q\n oracle %q",
				seed, round, pipeText, oracleText)
		}
	}
}

// convergePipe flushes and refreshes the pipelined world until all three
// clients and the decrypted server container agree, and returns the
// converged text. The idle catch-up that realigns a behind mediator is
// asynchronous, so agreement can take a few refresh passes.
func convergePipe(t *testing.T, w *pipeWorld, docID string, stegoOn bool, seed int64, round int) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	deadline := time.Now().Add(15 * time.Second)
	for {
		for i := range w.clients {
			if err := w.exts[i].Session(docID).Flush(ctx); err != nil {
				t.Fatalf("seed %d round %d: converge flush %d: %v", seed, round, i, err)
			}
			if err := w.clients[i].Refresh(); err != nil {
				t.Fatalf("seed %d round %d: converge refresh %d: %v", seed, round, i, err)
			}
		}
		text := w.clients[0].Text()
		if w.clients[1].Text() == text && w.clients[2].Text() == text &&
			decryptStored(t, w.server, docID, "fuzz-pw", stegoOn) == text {
			// One more quiescing pass: the refreshes above requested idle
			// catch-ups; consume them so the next round's saves cannot race
			// a background repair.
			for i := range w.exts {
				if err := w.exts[i].Session(docID).Flush(ctx); err != nil {
					t.Fatalf("seed %d round %d: quiesce flush %d: %v", seed, round, i, err)
				}
			}
			return text
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d round %d: pipelined world failed to converge: %q / %q / %q / server %q",
				seed, round, w.clients[0].Text(), w.clients[1].Text(), w.clients[2].Text(),
				decryptStored(t, w.server, docID, "fuzz-pw", stegoOn))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gatedTransport blocks every round trip while the gate is closed,
// simulating a backend that stops answering without erroring.
type gatedTransport struct {
	base    http.RoundTripper
	mu      sync.Mutex
	gate    chan struct{} // non-nil while closed; receive unblocks
	arrived chan struct{} // optional, buffered(1): signalled when a round trip blocks
}

func (g *gatedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	g.mu.Lock()
	ch := g.gate
	g.mu.Unlock()
	if ch != nil {
		select {
		case g.arrived <- struct{}{}:
		default:
		}
		select {
		case <-ch:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return g.base.RoundTrip(req)
}

func (g *gatedTransport) close() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	select {
	case <-g.arrived: // forget a round trip that blocked at an earlier closing
	default:
	}
	g.mu.Unlock()
}

func (g *gatedTransport) open() {
	g.mu.Lock()
	ch := g.gate
	g.gate = nil
	g.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// TestSlowBackendNeverBlocksLocalEdits is the queue's liveness property,
// meant for -race runs: with the backend wedged and the pipeline queue at
// max depth, local edits and saves must keep completing immediately (new
// saves coalesce into the queue tail instead of waiting for a slot), and
// once the backend recovers everything drains and converges.
func TestSlowBackendNeverBlocksLocalEdits(t *testing.T) {
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	defer ts.Close()
	gated := &gatedTransport{base: ts.Client().Transport}

	const depth = 2
	opts := core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8, Nonces: crypt.NewSeededNonceSource(777)}
	ext := New(gated, StaticPassword("slow-pw", opts), WithPipeline(depth))
	client := gdocs.NewClient(ext.Client(), ts.URL, "slow-doc")

	if err := client.Create(); err != nil {
		t.Fatalf("create: %v", err)
	}
	client.SetText("base text for the slow backend liveness test")
	if err := client.Save(); err != nil {
		t.Fatalf("base save: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := ext.Session("slow-doc").Flush(ctx); err != nil {
		t.Fatalf("base flush: %v", err)
	}

	// Wedge the backend, then hammer local edits. Every save must return
	// promptly even though nothing can reach the server: the first fills
	// the in-flight slot, the next fill the queue, and the rest coalesce.
	gated.close()
	const edits = 150
	start := time.Now()
	var worst time.Duration
	for i := 0; i < edits; i++ {
		if err := client.Insert(0, fmt.Sprintf("e%d.", i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		s0 := time.Now()
		if err := client.Save(); err != nil {
			t.Fatalf("save %d with backend wedged: %v", i, err)
		}
		if d := time.Since(s0); d > worst {
			worst = d
		}
	}
	elapsed := time.Since(start)
	// Generous bounds: a single blocked round trip would alone exceed
	// these, so any lock held across the network shows up immediately.
	if worst > 2*time.Second {
		t.Errorf("slowest local save took %v with the backend wedged; the queue is blocking edits", worst)
	}
	if elapsed > 10*time.Second {
		t.Errorf("%d local saves took %v with the backend wedged", edits, elapsed)
	}
	st := ext.Session("slow-doc").Stats()
	if st.Pending > depth {
		t.Errorf("queue depth %d exceeds configured max %d", st.Pending, depth)
	}
	if st.Coalesced == 0 {
		t.Errorf("expected saves beyond depth %d to coalesce, stats = %+v", depth, st)
	}
	if !ext.Session("slow-doc").Degraded() {
		t.Error("session not degraded while backend wedged with a full queue")
	}

	// Recovery: open the gate, drain, and prove byte convergence.
	want := client.Text()
	gated.open()
	if err := ext.Session("slow-doc").Flush(ctx); err != nil {
		t.Fatalf("drain flush: %v", err)
	}
	if got := decryptStored(t, server, "slow-doc", "slow-pw", false); got != want {
		t.Errorf("server text after drain = %q, want %q", got, want)
	}
	if err := client.Refresh(); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if client.Text() != want {
		t.Errorf("client text after drain = %q, want %q", client.Text(), want)
	}
}

// saveTap is a base transport that records every save (POST /Doc) that
// reaches it — its idempotency token and body — and lets a test decide
// each save's fate. Other requests pass straight through.
type saveTap struct {
	base http.RoundTripper

	mu    sync.Mutex
	saves []tappedSave
	// onSave, when set, handles save n (numbered from 1 since arm): it may
	// block, forward the save, drop the server's response, or fail it.
	onSave func(n int, forward func() (*http.Response, error)) (*http.Response, error)
}

type tappedSave struct{ id, body string }

var errLostResponse = errors.New("saveTap: response lost")

func (s *saveTap) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || req.URL.Path != gdocs.PathDoc {
		return s.base.RoundTrip(req)
	}
	raw, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.saves = append(s.saves, tappedSave{id: req.Header.Get(gdocs.HeaderSaveID), body: string(raw)})
	n, onSave := len(s.saves), s.onSave
	s.mu.Unlock()
	forward := func() (*http.Response, error) {
		fwd := req.Clone(req.Context())
		fwd.Body = io.NopCloser(strings.NewReader(string(raw)))
		fwd.ContentLength = int64(len(raw))
		return s.base.RoundTrip(fwd)
	}
	if onSave == nil {
		return forward()
	}
	return onSave(n, forward)
}

// arm forgets the saves seen so far and installs the fate function.
func (s *saveTap) arm(onSave func(n int, forward func() (*http.Response, error)) (*http.Response, error)) {
	s.mu.Lock()
	s.saves, s.onSave = nil, onSave
	s.mu.Unlock()
}

func (s *saveTap) seen() []tappedSave {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]tappedSave(nil), s.saves...)
}

// forwardLosingResponse sends the save to the server and reports a lost
// response: the server applied it, the writer cannot know.
func forwardLosingResponse(forward func() (*http.Response, error)) (*http.Response, error) {
	if resp, err := forward(); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return nil, errLostResponse
}

// tapWorld is one author's pipelined extension over a saveTap, with the
// document created from base and its first save acknowledged.
func tapWorld(t *testing.T, docID, base string, depth int) (*gdocs.Server, *saveTap, *Extension, *gdocs.Client) {
	t.Helper()
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	t.Cleanup(ts.Close)
	tap := &saveTap{base: ts.Client().Transport}
	opts := core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8, Nonces: crypt.NewSeededNonceSource(4242)}
	ext := New(tap, StaticPassword("tap-pw", opts), WithPipeline(depth))
	client := gdocs.NewClient(ext.Client(), ts.URL, docID)
	if err := client.Create(); err != nil {
		t.Fatalf("create: %v", err)
	}
	client.SetText(base)
	if err := client.Save(); err != nil {
		t.Fatalf("base save: %v", err)
	}
	flushOrFail(t, ext, docID)
	return server, tap, ext, client
}

func flushOrFail(t *testing.T, ext *Extension, docID string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := ext.Session(docID).Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
}

func typeAndSave(t *testing.T, client *gdocs.Client, pos int, text string) {
	t.Helper()
	if err := client.Insert(pos, text); err != nil {
		t.Fatalf("insert %q at %d: %v", text, pos, err)
	}
	if err := client.Save(); err != nil {
		t.Fatalf("save %q: %v", text, err)
	}
}

// TestQueuedBurstIsOneSave pins the writer's send rule: keystrokes that
// queue up behind an in-flight save — more of them than the queue depth —
// go out as exactly one POST once that save is acknowledged.
func TestQueuedBurstIsOneSave(t *testing.T) {
	const docID = "burst-doc"
	server, tap, ext, client := tapWorld(t, docID, "a burst queues behind one save", 4)

	arrived, release := make(chan struct{}), make(chan struct{})
	tap.arm(func(n int, forward func() (*http.Response, error)) (*http.Response, error) {
		if n == 1 {
			arrived <- struct{}{}
			<-release
		}
		return forward()
	})
	typeAndSave(t, client, 0, "0")
	<-arrived // the first keystroke's save is in flight
	const burst = 12
	for i := 1; i <= burst; i++ {
		typeAndSave(t, client, i, string(rune('a'+i)))
	}
	close(release)
	flushOrFail(t, ext, docID)

	if saves := tap.seen(); len(saves) != 2 {
		t.Errorf("%d keystrokes behind an in-flight save took %d POSTs after it, want 1", burst, len(saves)-1)
	}
	if got, want := decryptStored(t, server, docID, "tap-pw", false), client.Text(); got != want {
		t.Errorf("server text %q, client text %q", got, want)
	}
}

// TestRetryResendsIdenticalSave: after an infrastructure failure whose
// outcome is unknown (the server applied the save, the response was
// lost), the writer re-sends the identical body under the same save id,
// and saves queued meanwhile go out separately instead of being merged
// into the retry — the server's replay detection would otherwise ack the
// merged save without applying the new edits.
func TestRetryResendsIdenticalSave(t *testing.T) {
	const docID = "retry-doc"
	server, tap, ext, client := tapWorld(t, docID, "retry me", 4)

	arrived, release := make(chan struct{}), make(chan struct{})
	tap.arm(func(n int, forward func() (*http.Response, error)) (*http.Response, error) {
		if n == 1 {
			defer func() { arrived <- struct{}{}; <-release }()
			return forwardLosingResponse(forward)
		}
		return forward()
	})
	typeAndSave(t, client, 0, "A")
	<-arrived // applied on the server; its response is about to be lost
	for i, s := range []string{"B", "C", "D"} {
		typeAndSave(t, client, 1+i, s)
	}
	close(release)
	flushOrFail(t, ext, docID)

	saves := tap.seen()
	if len(saves) != 3 {
		t.Fatalf("saw %d POSTs, want 3 (lost save, its retry, the queued keystrokes)", len(saves))
	}
	if saves[1].id != saves[0].id || saves[1].body != saves[0].body {
		t.Errorf("retry differs from the lost save: id %q vs %q, body equal %v",
			saves[1].id, saves[0].id, saves[1].body == saves[0].body)
	}
	if saves[2].id == saves[0].id {
		t.Error("queued keystrokes reused the retried save's id")
	}
	if got, want := decryptStored(t, server, docID, "tap-pw", false), "ABCDretry me"; got != want || client.Text() != want {
		t.Errorf("server text %q, client text %q, want %q", got, client.Text(), want)
	}
}

// TestDepthOneKeepsLostSaveIntact is the regression test for enqueue
// coalescing at depth 1: a keystroke typed while the writer backs off
// from a save whose response was lost must not be folded into that save.
// Folding gave the save a new id; since the lost attempt had in fact
// applied, the merged save conflicted and the repair rebased it over its
// own earlier edit, storing "helloAAB world".
func TestDepthOneKeepsLostSaveIntact(t *testing.T) {
	const docID = "depth1-doc"
	server, tap, ext, client := tapWorld(t, docID, "hello world", 1)

	var healed atomic.Bool
	failing := make(chan struct{}, 1)
	tap.arm(func(n int, forward func() (*http.Response, error)) (*http.Response, error) {
		switch {
		case n == 1:
			return forwardLosingResponse(forward)
		case healed.Load():
			return forward()
		}
		if n >= 4 {
			select {
			case failing <- struct{}{}:
			default:
			}
		}
		return nil, errInjected
	})
	typeAndSave(t, client, 5, "A")
	<-failing
	// Type B while the writer sleeps in its backoff, not mid-send.
	waitWriterParked(t, ext, docID)
	typeAndSave(t, client, 6, "B")
	healed.Store(true)
	flushOrFail(t, ext, docID)

	if got, want := decryptStored(t, server, docID, "tap-pw", false), "helloAB world"; got != want || client.Text() != want {
		t.Errorf("server text %q, client text %q, want %q", got, client.Text(), want)
	}
}

// waitWriterParked waits until docID's writer is not sending.
func waitWriterParked(t *testing.T, ext *Extension, docID string) {
	t.Helper()
	ext.mu.RLock()
	sess := ext.sessions[docID]
	ext.mu.RUnlock()
	deadline := time.Now().Add(10 * time.Second)
	for {
		sess.mu.Lock()
		inflight := sess.pl.inflight
		sess.mu.Unlock()
		if !inflight {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("writer never left its send")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlushWaitsForRunningCatchup: a load on a quiet session starts an
// idle catch-up fetch; a Flush issued while that fetch is on the wire
// must wait for it, so Refresh → Flush → Refresh reads the other author's
// save. The catch-up is held at a gate that opens only after Flush has
// been called.
func TestFlushWaitsForRunningCatchup(t *testing.T) {
	const docID = "catchup-doc"
	w := newPipeWorld(t, docID, 77, false, 4)
	a, b := w.clients[0], w.clients[1]
	if err := a.Create(); err != nil {
		t.Fatalf("create: %v", err)
	}
	a.SetText("shared base text")
	if err := a.Save(); err != nil {
		t.Fatalf("base save: %v", err)
	}
	flushOrFail(t, w.exts[0], docID)
	if err := b.Load(); err != nil {
		t.Fatalf("load b: %v", err)
	}
	flushOrFail(t, w.exts[1], docID)
	typeAndSave(t, b, 0, "B wrote this. ")
	flushOrFail(t, w.exts[1], docID)

	gate := w.gates[0]
	gate.close()
	if err := a.Refresh(); err != nil { // served locally; asks for a catch-up
		t.Fatalf("refresh: %v", err)
	}
	<-gate.arrived // the catch-up fetch is on the wire
	time.AfterFunc(20*time.Millisecond, gate.open)
	flushOrFail(t, w.exts[0], docID)
	if err := a.Refresh(); err != nil {
		t.Fatalf("refresh after flush: %v", err)
	}
	if a.Text() != b.Text() {
		t.Errorf("after Refresh, Flush, Refresh author A reads %q, author B wrote %q", a.Text(), b.Text())
	}
}
