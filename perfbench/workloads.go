package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"privedit/internal/gdocs"
)

// shape fixes the sizes of a workload's inputs.
type shape struct {
	typingChars int   // each author's document in typing
	coeditChars int   // the shared document in coedit
	openSizes   []int // cold-open document sizes, cycled over the population
	population  int   // cold-open documents
	setups      int   // set-ups per run; setup_s is their median
	warmUnits   int   // untimed units per loop before measuring
}

var (
	fullShape = shape{
		typingChars: 50_000, coeditChars: 20_000,
		openSizes: []int{2_000, 20_000, 60_000}, population: 300,
		setups: 5, warmUnits: 3,
	}
	// shortShape is the self-test shape: same code paths, small inputs.
	shortShape = shape{
		typingChars: 3_000, coeditChars: 2_000,
		openSizes: []int{500, 2_500, 6_000}, population: 9,
		setups: 1, warmUnits: 1,
	}
)

// workload is one seeded input set driven through a rig.
type workload interface {
	// setup builds the workload's documents and editors in g.
	setup(g *rig) error
	// loops is the number of closed client loops.
	loops() int
	// unit runs one burst (or open) on loop i and records its samples.
	unit(g *rig, i int, traced bool, st *stats)
	// check verifies every output after the run and returns the
	// server-held ciphertext bytes and plaintext characters at run end.
	check(g *rig) (storedBytes, chars int64, err error)
	// probeInputs returns stored transports and a keystroke tape (with its
	// starting text) for the direct core probes.
	probeInputs(g *rig) (transports []string, start string, tape []key)
	// inPlain reports whether s occurs in a document the workload wrote.
	inPlain(s string) bool
	// close ends every extension session.
	close() error
}

func newWorkload(name string, seed int64, sh shape) (workload, error) {
	switch name {
	case "typing":
		return &typing{seed: seed, chars: sh.typingChars}, nil
	case "cold-open":
		return &coldOpen{seed: seed, sh: sh}, nil
	case "coedit":
		return &coedit{typing: typing{seed: seed, chars: sh.coeditChars}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want typing, cold-open or coedit)", name)
}

// stats collects one run's samples. Latencies are in ms, split by whether
// the unit was traced; a failed operation is kept as +Inf, so it counts in
// every denominator and misses every latency limit.
type stats struct {
	mu        sync.Mutex
	ops       [2][]float64
	flushes   [2][]float64
	done      int64 // primary operations (keystrokes or opens) completed
	attempted int64
	failed    int64
	// Written by cold-open's single loop only.
	chars      int64 // plaintext characters opened
	fetchBytes int64 // response bytes of the opens' document fetches
}

func (s *stats) record(list *[2][]float64, traced bool, d time.Duration, err error) {
	v := float64(d) / 1e6
	if err != nil {
		v = inf
	}
	t := 0
	if traced {
		t = 1
	}
	s.mu.Lock()
	list[t] = append(list[t], v)
	s.attempted++
	if err != nil {
		s.failed++
	}
	s.mu.Unlock()
}

func (s *stats) op(traced bool, d time.Duration, err error) {
	s.record(&s.ops, traced, d, err)
	if err == nil {
		s.mu.Lock()
		s.done++
		s.mu.Unlock()
	}
}

func (s *stats) flush(traced bool, d time.Duration, err error) {
	s.record(&s.flushes, traced, d, err)
}

// typer is one author typing bursts into one document through its own
// extension.
type typer struct {
	who     *author
	ed      *editor
	c       *gdocs.Client
	doc     string
	t       *typist
	initial string
	tape    []key
}

// burst types one burst, one Replace+Sync per keystroke, then waits for
// Flush: the autosave's "All changes saved".
func (p *typer) burst(rec *recorder, traced bool, st *stats) {
	p.who.traced.Store(traced)
	defer p.who.traced.Store(false)
	p.t.startBurst(len(p.c.Text()))
	for {
		k, ok := p.t.next(len(p.c.Text()))
		if !ok {
			break
		}
		d, err := p.keystroke(rec, traced, k)
		st.op(traced, d, err)
	}
	start := time.Now()
	root := int32(-1)
	if traced {
		root = rec.begin(span{kind: kFlush, author: p.who.id, parent: -1, doc: p.doc})
	}
	err := p.ed.flush(p.doc)
	if traced {
		rec.finish(root, 0, 0)
	}
	st.flush(traced, time.Since(start), err)
}

func (p *typer) keystroke(rec *recorder, traced bool, k key) (time.Duration, error) {
	if !traced {
		start := time.Now()
		err := p.c.Replace(k.pos, k.del, k.ins)
		if err != nil {
			return time.Since(start), err
		}
		err = p.c.Sync()
		d := time.Since(start)
		p.tape = append(p.tape, k)
		return d, err
	}
	start := time.Now()
	root := rec.begin(span{kind: kKeystroke, author: p.who.id, parent: -1, doc: p.doc})
	e0 := rec.now()
	err := p.c.Replace(k.pos, k.del, k.ins)
	rec.add(span{kind: kEdit, author: p.who.id, parent: root, start: e0, end: rec.now()})
	if err != nil {
		rec.finish(root, 0, 0)
		return time.Since(start), err
	}
	id := rec.begin(span{kind: kSync, author: p.who.id, parent: root})
	p.c.WithContext(withSpan(context.Background(), id))
	err = p.c.Sync()
	rec.finish(id, 0, 0)
	rec.finish(root, 0, 0)
	d := time.Since(start)
	p.c.WithContext(context.Background())
	p.tape = append(p.tape, k)
	return d, err
}

// typing: two authors, each with its own extension and document.
type typing struct {
	seed    int64
	chars   int
	authors []*typer
}

func (w *typing) loops() int { return 2 }

func (w *typing) newTyper(g *rig, i int) *typer {
	who := &author{id: int8(i)}
	return &typer{
		who: who, ed: g.newEditor(who),
		t: newTypist(w.seed*7919+int64(i), w.chars, g.leaks.addRun),
	}
}

func (w *typing) setup(g *rig) error {
	w.authors = nil
	for i := 0; i < w.loops(); i++ {
		p := w.newTyper(g, i)
		p.doc = fmt.Sprintf("typing-%d", i)
		p.initial = prose(newRNG(w.seed*31+int64(i)), w.chars)
		c, err := g.publish(p.ed, p.doc, p.initial)
		if err != nil {
			return err
		}
		p.c = c
		w.authors = append(w.authors, p)
	}
	return nil
}

func (w *typing) unit(g *rig, i int, traced bool, st *stats) {
	w.authors[i].burst(g.rec, traced, st)
}

// check: each document's text is its keystroke tape replayed locally, and
// so is the decryption of what the server stores.
func (w *typing) check(g *rig) (storedBytes, chars int64, err error) {
	for _, p := range w.authors {
		want := replay(p.initial, p.tape)
		if p.c.Text() != want {
			return 0, 0, fmt.Errorf("%s: client text differs from its keystroke tape", p.doc)
		}
		cipher, plain, err := g.storedPlain(p.doc)
		if err != nil {
			return 0, 0, err
		}
		if plain != want {
			return 0, 0, fmt.Errorf("%s: stored document decrypts to a different text than the keystroke tape", p.doc)
		}
		storedBytes += int64(len(cipher))
		chars += int64(len(plain))
	}
	return storedBytes, chars, nil
}

func (w *typing) probeInputs(g *rig) ([]string, string, []key) {
	var transports []string
	for _, p := range w.authors {
		if c, err := g.stored(p.doc); err == nil {
			transports = append(transports, c)
		}
	}
	return transports, w.authors[0].initial, w.authors[0].tape
}

func (w *typing) close() error {
	var errs []error
	for _, p := range w.authors {
		errs = append(errs, p.ed.ext.Session(p.doc).Close())
	}
	return errors.Join(errs...)
}

func (w *typing) inPlain(s string) bool {
	for _, p := range w.authors {
		if strings.Contains(p.initial, s) {
			return true
		}
	}
	return false
}

// coedit: two authors with two extensions edit one shared document.
type coedit struct {
	typing
}

// The coedit check gives the authors this long to converge once editing
// has stopped.
const (
	convergeRounds = 100
	convergePause  = 10 * time.Millisecond
)

func (w *coedit) setup(g *rig) error {
	w.authors = nil
	doc := "coedit"
	initial := prose(newRNG(w.seed*31), w.chars)
	for i := 0; i < w.loops(); i++ {
		p := w.newTyper(g, i)
		p.doc, p.initial = doc, initial
		if i == 0 {
			c, err := g.publish(p.ed, doc, initial)
			if err != nil {
				return err
			}
			p.c = c
		} else {
			p.c = g.client(p.ed, doc)
			if err := p.c.Load(); err != nil {
				return fmt.Errorf("second author opens %s: %w", doc, err)
			}
		}
		w.authors = append(w.authors, p)
	}
	return nil
}

// check: both authors and a fresh open converge on the text the stored
// document decrypts to.
func (w *coedit) check(g *rig) (storedBytes, chars int64, err error) {
	for _, p := range w.authors {
		if p.c.Dirty() {
			if err := p.c.Sync(); err != nil {
				return 0, 0, fmt.Errorf("final save by author %d: %w", p.who.id, err)
			}
		}
	}
	for _, p := range w.authors {
		if err := p.ed.flush(p.doc); err != nil {
			return 0, 0, fmt.Errorf("final flush by author %d: %w", p.who.id, err)
		}
	}
	cipher, stored, err := g.storedPlain(w.authors[0].doc)
	if err != nil {
		return 0, 0, err
	}
	// Refresh asks an extension to fold in the other author's saves. Flush
	// does not wait for a catch-up the writer has already begun (it clears
	// the pending flag before fetching), so poll, boundedly, until both
	// authors read the stored text.
	for round := 0; round < convergeRounds; round++ {
		converged := true
		for _, p := range w.authors {
			if err := p.c.Refresh(); err != nil {
				return 0, 0, fmt.Errorf("refresh by author %d: %w", p.who.id, err)
			}
			if err := p.ed.flush(p.doc); err != nil {
				return 0, 0, fmt.Errorf("catch-up by author %d: %w", p.who.id, err)
			}
			converged = converged && p.c.Text() == stored
		}
		if converged {
			break
		}
		time.Sleep(convergePause)
	}
	var diverged []string
	for _, p := range w.authors {
		if p.c.Text() != stored {
			st := p.ed.ext.Stats()
			ss := p.ed.ext.Session(p.doc).Stats()
			diverged = append(diverged, fmt.Sprintf(
				"author %d has %d chars against %d stored (local v%d, server v%d, dropped %d, resyncs %d, OT merges %d)",
				p.who.id, len(p.c.Text()), len(stored), ss.LocalVersion, ss.ServerVersion,
				st.DroppedSaves, st.ConflictResyncs, st.OTMerges))
		}
	}
	if len(diverged) > 0 {
		return 0, 0, fmt.Errorf("authors did not converge on the stored text within %v: %s",
			convergeRounds*convergePause, strings.Join(diverged, "; "))
	}
	fresh := g.newEditor(&author{id: -1})
	c := g.client(fresh, w.authors[0].doc)
	if err := c.Load(); err != nil {
		return 0, 0, fmt.Errorf("fresh open: %w", err)
	}
	if c.Text() != stored {
		return 0, 0, errors.New("a fresh open differs from the stored text")
	}
	if err := fresh.ext.Session(w.authors[0].doc).Close(); err != nil {
		return 0, 0, err
	}
	return int64(len(cipher)), int64(len(stored)), nil
}

func (w *coedit) probeInputs(g *rig) ([]string, string, []key) {
	var transports []string
	if c, err := g.stored(w.authors[0].doc); err == nil {
		transports = append(transports, c)
	}
	return transports, w.authors[0].initial, w.authors[0].tape
}

// coldOpen: one loop opens seeded documents from a population through a
// fresh extension each time; the server's cache holds a sixth of them.
type coldOpen struct {
	seed   int64
	sh     shape
	who    *author
	r      *rng
	sizes  []int
	sums   [][sha256.Size]byte
	budget int64
	// Opens that failed verifyOpen, and the first reason; single loop.
	bad      int64
	firstBad error
}

func (w *coldOpen) loops() int { return 1 }

func openDoc(i int) string { return fmt.Sprintf("open-%03d", i) }

func (w *coldOpen) text(i int) string {
	return prose(newRNG(w.seed*1_000_003+int64(i)), w.sizes[i])
}

func (w *coldOpen) setup(g *rig) error {
	w.who = &author{id: 0, caughtUp: make(chan catchupDone, 1)}
	w.r = newRNG(w.seed)
	w.sizes = make([]int, w.sh.population)
	w.sums = make([][sha256.Size]byte, w.sh.population)
	pub := g.newEditor(&author{id: -1})
	var stored int64
	for i := range w.sizes {
		w.sizes[i] = w.sh.openSizes[i%len(w.sh.openSizes)]
		text := w.text(i)
		w.sums[i] = sha256.Sum256([]byte(text))
		if _, err := g.publish(pub, openDoc(i), text); err != nil {
			return err
		}
		if err := pub.ext.Session(openDoc(i)).Close(); err != nil {
			return err
		}
		content, _, _, err := g.disk.Get(openDoc(i))
		if err != nil {
			return err
		}
		stored += int64(len(content))
	}
	// Restart the server over the populated store with the cache budget,
	// so opens start cold and most fault in from disk.
	w.budget = stored / cacheShare
	g.serve(w.budget)
	return nil
}

func (w *coldOpen) unit(g *rig, _ int, traced bool, st *stats) {
	i := w.r.Intn(len(w.sizes))
	doc := openDoc(i)
	w.who.traced.Store(traced)
	defer w.who.traced.Store(false)
	ed := g.newEditor(w.who)
	c := g.client(ed, doc)
	f0, b0 := w.who.n.fetches.Load(), w.who.n.fetchBytes.Load()
	var err error
	start := time.Now()
	if traced {
		root := g.rec.begin(span{kind: kOpen, author: w.who.id, parent: -1, doc: doc})
		id := g.rec.begin(span{kind: kLoad, author: w.who.id, parent: root})
		c.WithContext(withSpan(context.Background(), id))
		err = c.Load()
		g.rec.finish(id, 0, 0)
		g.rec.finish(root, 0, 0)
	} else {
		err = c.Load()
	}
	d := time.Since(start)
	if err == nil {
		w.fail(w.verifyOpen(i, c.Text(), w.who.n.fetches.Load()-f0, ed.ext.Stats().LoadsDecrypted))
		st.chars += int64(w.sizes[i])
		st.fetchBytes += w.who.n.fetchBytes.Load() - b0
	}
	st.op(traced, d, err)
	if err == nil {
		var at time.Time
		at, err = w.awaitCatchup(doc)
		st.flush(traced, at.Sub(start), err)
	}
	w.fail(ed.flush(doc))
	w.fail(ed.ext.Session(doc).Close())
}

// awaitCatchup waits for the catch-up GET the pipelined open of doc sends
// after its fetch and returns when its response body was read. The open
// settles then, whether the writer fetched before or after the open
// returned, so the time does not depend on that race.
func (w *coldOpen) awaitCatchup(doc string) (time.Time, error) {
	timeout := time.NewTimer(flushTimeout)
	defer timeout.Stop()
	for {
		select {
		case cu := <-w.who.caughtUp:
			if cu.doc == doc {
				return cu.at, nil
			}
		case <-timeout.C:
			return time.Time{}, fmt.Errorf("%s: no catch-up GET within %v of the open", doc, flushTimeout)
		}
	}
}

func (w *coldOpen) fail(err error) {
	if err == nil {
		return
	}
	if w.bad == 0 {
		w.firstBad = err
	}
	w.bad++
}

// verifyOpen checks one open of document i: the seeded text, after
// exactly one whole-document fetch at the base transport and one
// decryption in the extension. An open served from a plaintext cache
// fetches nothing and fails here.
func (w *coldOpen) verifyOpen(i int, text string, fetches int64, decrypts int) error {
	switch {
	case len(text) != w.sizes[i] || sha256.Sum256([]byte(text)) != w.sums[i]:
		return fmt.Errorf("%s: opened text differs from the seeded text", openDoc(i))
	case fetches != 1:
		return fmt.Errorf("%s: %d document fetches for one open", openDoc(i), fetches)
	case decrypts != 1:
		return fmt.Errorf("%s: %d decryptions for one open", openDoc(i), decrypts)
	}
	return nil
}

// check: every open returned the seeded text after exactly one document
// fetch and one decryption; stored content holds no plaintext.
func (w *coldOpen) check(g *rig) (storedBytes, chars int64, err error) {
	if w.bad > 0 {
		return 0, 0, fmt.Errorf("%d opens failed verification, the first: %w", w.bad, w.firstBad)
	}
	for i := range w.sizes {
		content, err := g.stored(openDoc(i))
		if err != nil {
			return 0, 0, err
		}
		storedBytes += int64(len(content))
		chars += int64(w.sizes[i])
	}
	return storedBytes, chars, nil
}

func (w *coldOpen) probeInputs(g *rig) ([]string, string, []key) {
	var transports []string
	for i := 0; i < len(w.sizes) && i < 3*len(w.sh.openSizes); i++ {
		if c, err := g.stored(openDoc(i)); err == nil {
			transports = append(transports, c)
		}
	}
	return transports, "", nil
}

func (w *coldOpen) close() error { return nil }

func (w *coldOpen) inPlain(s string) bool {
	for i := range w.sizes {
		if strings.Contains(w.text(i), s) {
			return true
		}
	}
	return false
}
