package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"privedit/internal/gdocs"
)

// benchmarkSpec reads the metric lists BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func sameMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	var names []string
	for name, m := range got {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			names = append(names, name+" "+m.Unit)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			names = append(names, "missing "+name)
		}
	}
	sort.Strings(names)
	if len(names) > 0 {
		t.Errorf("metrics differ from BENCHMARK.json: %v", names)
	}
}

// TestShortWorkloads runs every workload, untraced and traced, on the
// short shape and checks it passes its own output checks and reports
// exactly the metrics BENCHMARK.json lists.
func TestShortWorkloads(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for _, wl := range []string{"typing", "cold-open", "coedit"} {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: wl, seed: 7, seconds: 0.3, trace: trace, dataDir: t.TempDir()}
			res, checkErr, err := run(cfg, shortShape, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if checkErr != nil || !res.Correct {
				t.Fatalf("%s trace=%v: output check: %v", wl, trace, checkErr)
			}
			if res.Attempted == 0 || (wl != "coedit" && res.Failed != 0) {
				t.Errorf("%s trace=%v: attempted %d, failed %d", wl, trace, res.Attempted, res.Failed)
			}
			if !trace {
				sameMetrics(t, res.Metrics, endToEnd)
				continue
			}
			sameMetrics(t, res.Metrics, perLayer)
			if wl == "cold-open" {
				if got := res.Metrics["wire.fetches_per_open"].Value; got != 1 {
					t.Errorf("cold-open: %v document fetches per open, want exactly 1", got)
				}
				if got := res.Metrics["ledger.unattributed_pct.open"].Value; got >= 10 {
					t.Errorf("cold-open: open ledger leaves %.1f%% unattributed", got)
				}
			}
		}
	}
}

// TestColdOpenGuard pins that each cold open fetches the document once at
// the base transport and decrypts it, and that an open answered from the
// extension's plaintext cache fails the guard.
func TestColdOpenGuard(t *testing.T) {
	g, err := openRig(t.TempDir(), nil, newLeakCheck(nil))
	if err != nil {
		t.Fatal(err)
	}
	w := &coldOpen{seed: 3, sh: shortShape}
	if err := w.setup(g); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := teardown(w, g); err != nil {
			t.Error(err)
		}
	}()
	var st stats
	const opens = 6
	for i := 0; i < opens; i++ {
		w.unit(g, 0, false, &st)
	}
	if w.bad != 0 || st.failed != 0 {
		t.Fatalf("%d opens failed the guard, %d failed", w.bad, st.failed)
	}
	if got := w.who.n.fetches.Load(); got != opens {
		t.Fatalf("%d document fetches for %d opens", got, opens)
	}
	// Every open settles when its catch-up GET has been read.
	if got := len(st.flushes[0]); got != opens {
		t.Fatalf("%d settle times for %d opens", got, opens)
	}
	for _, v := range st.flushes[0] {
		if v <= 0 || v == inf {
			t.Fatalf("settle time %v ms", v)
		}
	}

	// The same extension opening the document again serves its plaintext
	// view without fetching or decrypting: the guard must reject that.
	ed := g.newEditor(w.who)
	c := g.client(ed, openDoc(0))
	if err := c.Load(); err != nil {
		t.Fatal(err)
	}
	if err := ed.flush(openDoc(0)); err != nil {
		t.Fatal(err)
	}
	f0 := w.who.n.fetches.Load()
	if err := c.Load(); err != nil {
		t.Fatal(err)
	}
	err = w.verifyOpen(0, c.Text(), w.who.n.fetches.Load()-f0, ed.ext.Stats().LoadsDecrypted-1)
	if err == nil {
		t.Fatal("guard accepted an open served from the extension's cache")
	}
	if err := ed.flush(openDoc(0)); err != nil {
		t.Fatal(err)
	}
	if err := ed.ext.Session(openDoc(0)).Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSelfTime checks the span arithmetic on a synthetic tree.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{kind: kKeystroke, parent: -1, start: 0, end: 100},
		{kind: kSync, parent: 0, start: 10, end: 40},
		{kind: kEdit, parent: 0, start: 30, end: 60},  // overlaps its sibling
		{kind: kEdit, parent: 0, start: 90, end: 120}, // runs past its parent
		{kind: kMediator, parent: 1, start: 15, end: 20},
		// Two saves on one document; the Put advances the second's base
		// version, the Get is merely contained in both.
		{kind: kServer, req: rSave, parent: -1, doc: "d", start: 200, end: 250, version: 3},
		{kind: kServer, req: rSave, parent: -1, doc: "d", start: 210, end: 260, version: 4},
		{kind: kStore, req: rPut, parent: -1, doc: "d", start: 220, end: 230, version: 5},
		{kind: kStore, req: rGet, parent: -1, doc: "d", start: 240, end: 245},
		{kind: kStore, req: rGet, parent: -1, doc: "e", start: 240, end: 245},
	}
	tr := link(spans)
	for id, want := range map[int32]int64{0: 100 - 60, 1: 30 - 5, 2: 30, 4: 5, 5: 50, 6: 50 - 15} {
		if got := tr.self(id); got != want {
			t.Errorf("self(%d) = %d, want %d", id, got, want)
		}
	}
	for id, want := range map[int]int32{7: 6, 8: 6, 9: -1} {
		if got := tr.spans[id].parent; got != want {
			t.Errorf("span %d linked to %d, want %d", id, got, want)
		}
	}

	f := span{kind: kFlush, author: 1, doc: "d", start: 100, end: 200}
	wires := []span{
		{kind: kWire, req: rSave, author: 1, doc: "d", start: 90, end: 130},
		{kind: kWire, req: rSave, author: 1, doc: "d", start: 150, end: 170},
		{kind: kWire, req: rSave, author: 0, doc: "d", start: 170, end: 200}, // the other author
	}
	gaps, residual, saved := flushLedger(f, wires)
	if len(gaps) != 1 || gaps[0] != 20 || residual != 30 || !saved {
		t.Errorf("flushLedger = %v, %d, %v; want [20], 30, true", gaps, residual, saved)
	}
	gaps, residual, _ = flushLedger(span{kind: kFlush, author: 1, doc: "d", start: 100, end: 200}, wires[1:2])
	if len(gaps) != 1 || gaps[0] != 50 || residual != 30 {
		t.Errorf("flushLedger with a head gap = %v, %d; want [50], 30", gaps, residual)
	}
}

// TestFailedOpCounted checks that a failed operation counts as attempted
// and failed, stays in the latency denominators as a miss, and is not
// counted as work done.
func TestFailedOpCounted(t *testing.T) {
	var st stats
	st.op(false, 1*time.Millisecond, nil)
	st.op(false, 2*time.Millisecond, nil)
	st.op(false, 3*time.Millisecond, errors.New("conflict"))
	st.flush(false, 4*time.Millisecond, nil)
	if st.attempted != 4 || st.failed != 1 || st.done != 2 {
		t.Fatalf("attempted %d failed %d done %d, want 4 1 2", st.attempted, st.failed, st.done)
	}
	m := endToEnd(&st, 1, 0.5, 1, 10, 5)
	if got := m["op_ms.p50"].Value; got != 2 {
		t.Errorf("p50 over two completed ops and one failed = %v, want 2", got)
	}
	if got := m["op_ms.p99"].Value; got != failedValue {
		t.Errorf("p99 landing on the failed op = %v, want %v", got, failedValue)
	}
	if got := m["ops_per_s"].Value; got != 2 {
		t.Errorf("ops_per_s = %v, want the 2 completed ops", got)
	}
	if got := ratio(float64(st.failed), float64(st.attempted)); got != 0.25 {
		t.Errorf("failed_ratio = %v, want 0.25", got)
	}
}

// TestLeakCheck checks the confidentiality check finds typed plaintext and
// passes ciphertext.
func TestLeakCheck(t *testing.T) {
	l := newLeakCheck(func(s string) bool { return s == "seeded text." })
	l.addRun("the quick brown fox")
	l.scan("MZXW6YTBOI2DEMRT")
	l.scan("=12\t+ABCDEFGHIJKLMNOP")
	if got := l.hits.Load(); got != 0 {
		t.Fatalf("%d hits in ciphertext", got)
	}
	l.scan("=12\t+quick brown fox")
	l.scan("XXseeded text.YY")
	l.scan("quick brown")              // shorter than a run
	l.scan("a lazy dog jumps over it") // never typed
	if got := l.hits.Load(); got != 2 {
		t.Fatalf("%d hits, want 2", got)
	}
}

// TestWireSeamReadsSentBody checks that the wire seam scans and counts the
// body a request carries, not the one its GetBody would rebuild, and passes
// that body on unchanged.
func TestWireSeamReadsSentBody(t *testing.T) {
	const sent = "docID=d&version=3&delta=%3D4%09%2Bthe+quick+brown+fox"
	var got string
	next := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		raw, err := io.ReadAll(req.Body)
		got = string(raw)
		return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader("")), Request: req}, err
	})
	leaks := newLeakCheck(nil)
	leaks.addRun("the quick brown fox")
	who := &author{}
	seam := &wireSeam{next: next, who: who, leaks: leaks}
	req, err := http.NewRequest(http.MethodPost, "http://server"+gdocs.PathDoc, strings.NewReader(sent))
	if err != nil {
		t.Fatal(err)
	}
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader("docID=d")), nil }
	resp, err := seam.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got != sent {
		t.Errorf("next transport got body %q, want %q", got, sent)
	}
	if n := leaks.hits.Load(); n != 1 {
		t.Errorf("%d leak hits in a body carrying typed plaintext, want 1", n)
	}
	if n := who.n.saveBytes.Load(); n != int64(len(sent)) {
		t.Errorf("counted %d save bytes, want %d", n, len(sent))
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestReplay checks the tape replay against string splicing.
func TestReplay(t *testing.T) {
	text := "hello world"
	var tape []key
	want := text
	typ := newTypist(5, len(text), nil)
	for burst := 0; burst < 20; burst++ {
		typ.startBurst(len(want))
		for {
			k, ok := typ.next(len(want))
			if !ok {
				break
			}
			tape = append(tape, k)
			want = want[:k.pos] + k.ins + want[k.pos+k.del:]
		}
	}
	if got := replay(text, tape); got != want {
		t.Fatalf("replay = %q, want %q", got, want)
	}
}
