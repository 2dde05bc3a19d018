package mediator

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"privedit/internal/core"
	"privedit/internal/covert"
	"privedit/internal/crypt"
	"privedit/internal/gdocs"
)

// admissionGate rejects the next N requests the way the gdocs admission
// controller does — 429 plus the retryable marker and a Retry-After hint —
// and passes everything else through to the real server.
type admissionGate struct {
	base http.RoundTripper

	mu         sync.Mutex
	rejectNext int
	retryAfter string // Retry-After header value; "" omits the header
	rejects    int
}

func (g *admissionGate) RoundTrip(req *http.Request) (*http.Response, error) {
	g.mu.Lock()
	reject := g.rejectNext > 0
	if reject {
		g.rejectNext--
		g.rejects++
	}
	ra := g.retryAfter
	g.mu.Unlock()
	if reject {
		resp := synthesize(req, http.StatusTooManyRequests, "admission reject")
		resp.Header.Set(gdocs.HeaderRetryable, "1")
		if ra != "" {
			resp.Header.Set("Retry-After", ra)
		}
		return resp, nil
	}
	return g.base.RoundTrip(req)
}

func TestAdmissionRejectParsing(t *testing.T) {
	if _, ok := admissionReject(nil); ok {
		t.Fatal("nil response classified as admission reject")
	}
	plain := &http.Response{Header: http.Header{}}
	if _, ok := admissionReject(plain); ok {
		t.Fatal("response without retryable marker classified as admission reject")
	}
	marked := &http.Response{Header: http.Header{}}
	marked.Header.Set(gdocs.HeaderRetryable, "1")
	hint, ok := admissionReject(marked)
	if !ok || hint != 0 {
		t.Fatalf("marked response without Retry-After: hint=%v ok=%v, want 0 true", hint, ok)
	}
	marked.Header.Set("Retry-After", "garbage")
	if hint, ok = admissionReject(marked); !ok || hint != 0 {
		t.Fatalf("unparseable Retry-After: hint=%v ok=%v, want 0 true", hint, ok)
	}
	marked.Header.Set("Retry-After", "-3")
	if hint, ok = admissionReject(marked); !ok || hint != 0 {
		t.Fatalf("negative Retry-After: hint=%v ok=%v, want 0 true", hint, ok)
	}
	marked.Header.Set("Retry-After", "2")
	if hint, ok = admissionReject(marked); !ok || hint != 2*time.Second {
		t.Fatalf("Retry-After 2: hint=%v ok=%v, want 2s true", hint, ok)
	}
}

// TestAdmissionRetryHonored drives a save into a gate that throttles the
// first attempts. The retry loop must classify the 429 as an admission
// reject, count it, and still land the save once the gate admits it.
func TestAdmissionRetryHonored(t *testing.T) {
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	t.Cleanup(ts.Close)
	gate := &admissionGate{base: ts.Client().Transport, retryAfter: "1"}
	opts := core.Options{
		Scheme:     core.ConfidentialityIntegrity,
		BlockChars: 8,
		Nonces:     crypt.NewSeededNonceSource(99),
	}
	ext := New(ts.Client().Transport, StaticPassword("hunter2", opts))
	client := gdocs.NewClient(ext.Client(), ts.URL, "admission-doc")
	if err := client.Create(); err != nil {
		t.Fatalf("create: %v", err)
	}

	// Rebuild the extension over the gate with a fast retry policy; the
	// document state carries over because the server holds it.
	ext = New(gate, StaticPassword("hunter2", opts),
		WithResilience(Resilience{Retry: fastRetry(4)}))
	client = gdocs.NewClient(ext.Client(), ts.URL, "admission-doc")
	if err := client.Load(); err != nil {
		t.Fatalf("load before throttling: %v", err)
	}
	gate.mu.Lock()
	gate.rejectNext = 2
	gate.mu.Unlock()
	client.SetText("admitted eventually")
	if err := client.Save(); err != nil {
		t.Fatalf("save through admission gate: %v", err)
	}
	if got := ext.Stats().AdmissionRetries; got < 2 {
		t.Errorf("AdmissionRetries = %d, want >= 2", got)
	}
	if err := client.Load(); err != nil {
		t.Fatalf("load after admitted save: %v", err)
	}
	if text := client.Text(); text != "admitted eventually" {
		t.Fatalf("load after admitted save: %q", text)
	}
}

// TestAdmissionRetriesExhausted: a gate that never admits must surface the
// 429 to the caller after the policy's attempts run out.
func TestAdmissionRetriesExhausted(t *testing.T) {
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	t.Cleanup(ts.Close)
	gate := &admissionGate{base: ts.Client().Transport, rejectNext: 1 << 20}
	opts := core.Options{
		Scheme:     core.ConfidentialityIntegrity,
		BlockChars: 8,
		Nonces:     crypt.NewSeededNonceSource(100),
	}
	ext := New(gate, StaticPassword("hunter2", opts),
		WithResilience(Resilience{Retry: fastRetry(3)}))
	client := gdocs.NewClient(ext.Client(), ts.URL, "throttled-doc")
	if err := client.Create(); err == nil {
		t.Fatal("create through a closed admission gate succeeded")
	}
	if got := ext.Stats().AdmissionRetries; got == 0 {
		t.Error("AdmissionRetries = 0 after exhausted retries")
	}
}

// TestSessionHandle exercises the Session handle surface end to end:
// DocID, Editor/Degraded/Stats before and after traffic, Flush and Close.
func TestSessionHandle(t *testing.T) {
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	t.Cleanup(ts.Close)
	opts := core.Options{
		Scheme:     core.ConfidentialityIntegrity,
		BlockChars: 8,
		Nonces:     crypt.NewSeededNonceSource(7),
	}
	ext := New(ts.Client().Transport, StaticPassword("hunter2", opts))

	s := ext.Session("handle-doc")
	if s.DocID() != "handle-doc" {
		t.Fatalf("DocID = %q", s.DocID())
	}
	// Before any traffic: lazily created, so everything reads empty.
	if s.Editor() != nil {
		t.Error("Editor non-nil before first mediated request")
	}
	if s.Degraded() {
		t.Error("Degraded true before first mediated request")
	}
	if st := s.Stats(); st.Degraded || st.Pending != 0 {
		t.Errorf("Stats before traffic = %+v", st)
	}
	if n := ext.SessionCount(); n != 0 {
		t.Fatalf("SessionCount = %d before traffic", n)
	}

	client := gdocs.NewClient(ext.Client(), ts.URL, "handle-doc")
	if err := client.Create(); err != nil {
		t.Fatalf("create: %v", err)
	}
	client.SetText("session state")
	if err := client.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}

	if s.Editor() == nil {
		t.Error("Editor nil after mediated save")
	}
	if ext.Session("handle-doc").Editor() != s.Editor() {
		t.Error("a second handle sees a different Editor")
	}
	if s.Degraded() || ext.Session("handle-doc").Degraded() {
		t.Error("healthy session reported degraded")
	}
	if n := ext.SessionCount(); n != 1 {
		t.Errorf("SessionCount = %d, want 1", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := ext.SessionCount(); n != 0 {
		t.Errorf("SessionCount = %d after Close", n)
	}
	// Closing an already-closed (or never-opened) session is a no-op.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestWithMitigatorOption covers the WithMitigator option, with and without
// a mitigator.
func TestWithMitigatorOption(t *testing.T) {
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	t.Cleanup(ts.Close)
	opts := core.Options{
		Scheme:     core.ConfidentialityIntegrity,
		BlockChars: 8,
		Nonces:     crypt.NewSeededNonceSource(11),
	}
	mit := covert.New(covert.Config{CanonicalizeDeltas: true}, crypt.NewSeededNonceSource(12))
	for name, m := range map[string]*covert.Mitigator{"nil": nil, "set": mit} {
		ext := New(ts.Client().Transport, StaticPassword("hunter2", opts), WithMitigator(m))
		client := gdocs.NewClient(ext.Client(), ts.URL, "mitigated-"+name)
		if err := client.Create(); err != nil {
			t.Fatalf("%s: create: %v", name, err)
		}
		client.SetText("covert-checked")
		if err := client.Save(); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		if err := client.Load(); err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if text := client.Text(); text != "covert-checked" {
			t.Fatalf("%s: load: %q", name, text)
		}
	}
}
