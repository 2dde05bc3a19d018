package e2e

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"privedit/internal/core"
	"privedit/internal/gdocs"
	"privedit/internal/mediator"
	"privedit/internal/obs"
	"privedit/internal/workload"
)

// TestConcurrentSessionsDistinctDocs runs one extension serving many
// documents at once, each hammered by its own goroutine. Run with -race.
// Afterwards every document must decrypt to exactly its own session's
// text, with no bleed of one document's markers into another — the
// property the per-document mediator sessions and the sharded store exist
// to preserve.
func TestConcurrentSessionsDistinctDocs(t *testing.T) {
	server := gdocs.NewServer()
	server.EnableObservation()
	ts := httptest.NewServer(server)
	defer ts.Close()

	ext := mediator.New(ts.Client().Transport,
		mediator.StaticPassword("pw", core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8}))

	const sessions = 6
	const edits = 25
	var wg sync.WaitGroup
	finals := make([]string, sessions)
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			docID := fmt.Sprintf("own-doc-%d", s)
			c := gdocs.NewClient(ext.Client(), ts.URL, docID)
			if err := c.Create(); err != nil {
				errs[s] = fmt.Errorf("create: %w", err)
				return
			}
			gen := workload.NewGen(int64(1000 + s))
			c.SetText(fmt.Sprintf("MARKER-%d ", s) + gen.Document(3000))
			if err := c.Save(); err != nil {
				errs[s] = fmt.Errorf("first save: %w", err)
				return
			}
			for i := 0; i < edits; i++ {
				sp := gen.Edit(c.Text(), workload.InsertsAndDeletes)
				if err := c.Replace(sp.Pos, sp.Del, sp.Ins); err != nil {
					errs[s] = fmt.Errorf("edit %d: %w", i, err)
					return
				}
				if err := c.Save(); err != nil {
					errs[s] = fmt.Errorf("save %d: %w", i, err)
					return
				}
			}
			finals[s] = c.Text()
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", s, err)
		}
	}

	if got := ext.SessionCount(); got != sessions {
		t.Errorf("extension manages %d sessions, want %d", got, sessions)
	}

	for s := 0; s < sessions; s++ {
		docID := fmt.Sprintf("own-doc-%d", s)
		// A completely fresh mediated session must see exactly what the
		// writing session last had.
		fresh := mediator.New(ts.Client().Transport,
			mediator.StaticPassword("pw", core.Options{}))
		c := gdocs.NewClient(fresh.Client(), ts.URL, docID)
		if err := c.Load(); err != nil {
			t.Fatalf("fresh load %s: %v", docID, err)
		}
		if c.Text() != finals[s] {
			t.Errorf("doc %s: fresh session text diverges from writer's", docID)
		}
		for other := 0; other < sessions; other++ {
			marker := fmt.Sprintf("MARKER-%d ", other)
			if (other == s) != strings.Contains(c.Text(), marker) {
				t.Errorf("doc %s: marker bleed (has %q = %v)", docID, marker, other != s)
			}
		}
	}

	// The untrusted server must have seen ciphertext only.
	seen := server.Observed()
	for s := 0; s < sessions; s++ {
		if strings.Contains(seen, fmt.Sprintf("MARKER-%d", s)) {
			t.Fatalf("server observed plaintext marker of session %d", s)
		}
	}
}

// TestConcurrentSessionsSharedDoc has several sessions fight over one
// document through one extension, then checks the version-conflict
// accounting: the server's obs counter must have grown by exactly the
// number of optimistic-concurrency rejections, and a deterministic forced
// conflict must bump it by exactly one.
func TestConcurrentSessionsSharedDoc(t *testing.T) {
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	defer ts.Close()

	ext := mediator.New(ts.Client().Transport,
		mediator.StaticPassword("pw", core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8}))

	obs.Enable()
	const docID = "shared-doc"
	seedC := gdocs.NewClient(ext.Client(), ts.URL, docID)
	if err := seedC.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	seedC.SetText("shared base content: " + workload.NewGen(5).Document(2000))
	if err := seedC.Save(); err != nil {
		t.Fatalf("seed save: %v", err)
	}

	// Deterministic forced conflict: two sessions load the same version,
	// the second save must be rejected exactly once (the client then
	// merges and retries).
	before := int64(obs.Default.Value("privedit_version_conflicts_total"))
	a := gdocs.NewClient(ext.Client(), ts.URL, docID)
	b := gdocs.NewClient(ext.Client(), ts.URL, docID)
	if err := a.Load(); err != nil {
		t.Fatalf("a.Load: %v", err)
	}
	if err := b.Load(); err != nil {
		t.Fatalf("b.Load: %v", err)
	}
	if err := a.Insert(0, "[a]"); err != nil {
		t.Fatalf("a.Insert: %v", err)
	}
	if err := a.Sync(); err != nil {
		t.Fatalf("a.Sync: %v", err)
	}
	if err := b.Insert(0, "[b]"); err != nil {
		t.Fatalf("b.Insert: %v", err)
	}
	if err := b.Sync(); err != nil { // stale base: one rejection, then merge
		t.Fatalf("b.Sync: %v", err)
	}
	forced := int64(obs.Default.Value("privedit_version_conflicts_total")) - before
	if forced != 1 {
		t.Errorf("forced conflict bumped counter by %d, want 1", forced)
	}

	// Concurrent stress: every marker that a session successfully synced
	// must survive in the converged document.
	const writers = 4
	var wg sync.WaitGroup
	synced := make([]bool, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := gdocs.NewClient(ext.Client(), ts.URL, docID)
			if err := c.Load(); err != nil {
				return
			}
			if err := c.Insert(len(c.Text()), fmt.Sprintf("<w%d>", w)); err != nil {
				return
			}
			for attempt := 0; attempt < 10; attempt++ {
				if err := c.Sync(); err == nil {
					synced[w] = true
					return
				}
				// Both merge-loop exhaustion and a stale-transform 403 are
				// survivable: reload and try again.
				if err := c.Load(); err != nil {
					return
				}
				if err := c.Insert(len(c.Text()), fmt.Sprintf("<w%d>", w)); err != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()

	final := gdocs.NewClient(ext.Client(), ts.URL, docID)
	if err := final.Load(); err != nil {
		t.Fatalf("final load: %v", err)
	}
	for w := 0; w < writers; w++ {
		if !synced[w] {
			continue
		}
		if !strings.Contains(final.Text(), fmt.Sprintf("<w%d>", w)) {
			t.Errorf("writer %d synced but its marker is missing from the converged doc", w)
		}
	}

	// The plaintext view and the server's stored ciphertext must agree:
	// decrypting the stored container independently gives the same text.
	stored, _, err := server.Content(context.Background(), docID)
	if err != nil {
		t.Fatalf("Content: %v", err)
	}
	plain, err := core.DecryptWith("pw", stored, core.Options{})
	if err != nil {
		t.Fatalf("DecryptWith: %v", err)
	}
	if plain != final.Text() {
		t.Error("stored ciphertext decrypts to different text than a mediated load returns")
	}
}
