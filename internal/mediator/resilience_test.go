package mediator

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"privedit/internal/core"
	"privedit/internal/crypt"
	"privedit/internal/gdocs"
	"privedit/internal/obs"
)

// faultyTransport is a scriptable base transport: it can fail the next N
// requests (or all of them while down), either with a transport error or
// with an injected HTTP status, and can hang attempts until their context
// expires.
type faultyTransport struct {
	base http.RoundTripper

	mu       sync.Mutex
	failNext int  // fail this many upcoming requests
	down     bool // fail everything while set
	status   int  // 0 = transport error, else injected status
	hangNext int  // hang this many upcoming requests until ctx done
	hits     int
}

var errInjected = errors.New("faultyTransport: injected failure")

func (f *faultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.hits++
	hang := f.hangNext > 0
	if hang {
		f.hangNext--
	}
	fail := !hang && (f.down || f.failNext > 0)
	if !f.down && f.failNext > 0 && !hang {
		f.failNext--
	}
	status := f.status
	f.mu.Unlock()

	if hang {
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	if fail {
		if status != 0 {
			return synthesize(req, status, "faultyTransport: injected status"), nil
		}
		return nil, errInjected
	}
	return f.base.RoundTrip(req)
}

func (f *faultyTransport) set(fn func(*faultyTransport)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

// resilientHarness wires server + faulty transport + resilient extension.
type resilientHarness struct {
	server *gdocs.Server
	ts     *httptest.Server
	flaky  *faultyTransport
	ext    *Extension
	client *gdocs.Client
}

func newResilientHarness(t *testing.T, res Resilience) *resilientHarness {
	t.Helper()
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	t.Cleanup(ts.Close)
	flaky := &faultyTransport{base: ts.Client().Transport}
	opts := core.Options{
		Scheme:     core.ConfidentialityIntegrity,
		BlockChars: 8,
		Nonces:     crypt.NewSeededNonceSource(777),
	}
	ext := New(flaky, StaticPassword("hunter2", opts), WithResilience(res))
	client := gdocs.NewClient(ext.Client(), ts.URL, "resilient-doc")
	return &resilientHarness{server: server, ts: ts, flaky: flaky, ext: ext, client: client}
}

func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: attempts,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Seed:        1,
	}
}

func (h *resilientHarness) seed(t *testing.T, text string) {
	t.Helper()
	if err := h.client.Create(); err != nil {
		t.Fatalf("seed create: %v", err)
	}
	h.client.SetText(text)
	if err := h.client.Save(); err != nil {
		t.Fatalf("seed save: %v", err)
	}
}

func TestResilienceWithDefaults(t *testing.T) {
	r := Resilience{}.withDefaults()
	want := DefaultResilience()
	if r.Retry.MaxAttempts != want.Retry.MaxAttempts ||
		r.Retry.BaseBackoff != want.Retry.BaseBackoff ||
		r.Retry.MaxBackoff != want.Retry.MaxBackoff ||
		r.Breaker.TripAfter != want.Breaker.TripAfter ||
		r.Breaker.MaxCooldown != want.Breaker.MaxCooldown {
		t.Errorf("withDefaults = %+v, want %+v", r, want)
	}
	// Zero cooldown is a deliberate "probe on next request" mode and must
	// survive defaulting.
	if r.Breaker.Cooldown != 0 {
		t.Errorf("zero Cooldown rewritten to %v", r.Breaker.Cooldown)
	}
}

func TestRetryRecoversTransientErrors(t *testing.T) {
	h := newResilientHarness(t, Resilience{
		Retry:   fastRetry(4),
		Breaker: BreakerPolicy{TripAfter: 100},
	})
	h.seed(t, "the quick brown fox")

	h.flaky.set(func(f *faultyTransport) { f.failNext = 2 })
	if err := h.client.Insert(0, "Note: "); err != nil {
		t.Fatal(err)
	}
	if err := h.client.Save(); err != nil {
		t.Fatalf("save through transient failures: %v", err)
	}
	if got := h.ext.Stats().Retries; got < 2 {
		t.Errorf("Retries = %d, want >= 2", got)
	}
	if h.client.Degraded() {
		t.Error("successful retried save marked degraded")
	}
}

func TestRetryRecoversInjected5xxAnd429(t *testing.T) {
	for _, status := range []int{http.StatusInternalServerError, http.StatusTooManyRequests} {
		h := newResilientHarness(t, Resilience{
			Retry:   fastRetry(4),
			Breaker: BreakerPolicy{TripAfter: 100},
		})
		h.seed(t, "retry me")
		h.flaky.set(func(f *faultyTransport) { f.failNext, f.status = 2, status })
		if err := h.client.Insert(0, "x"); err != nil {
			t.Fatal(err)
		}
		if err := h.client.Save(); err != nil {
			t.Errorf("status %d: save not retried: %v", status, err)
		}
	}
}

func TestRetryExhaustionSurfacesStatus(t *testing.T) {
	h := newResilientHarness(t, Resilience{
		Retry:   fastRetry(3),
		Breaker: BreakerPolicy{TripAfter: 100},
	})
	h.seed(t, "doomed")

	h.flaky.set(func(f *faultyTransport) { f.down, f.status = true, http.StatusInternalServerError })
	if err := h.client.Insert(0, "x"); err != nil {
		t.Fatal(err)
	}
	err := h.client.Save()
	if err == nil {
		t.Fatal("save succeeded with the server hard-down")
	}
	if !strings.Contains(err.Error(), "500") {
		t.Errorf("error %q does not surface the final 500", err)
	}
	s := h.ext.Stats()
	if s.RetryGiveups < 1 {
		t.Errorf("RetryGiveups = %d, want >= 1", s.RetryGiveups)
	}
	if s.Retries < 2 {
		t.Errorf("Retries = %d, want >= 2 (3 attempts)", s.Retries)
	}
}

func TestTryTimeoutBoundsHungAttempts(t *testing.T) {
	res := Resilience{
		Retry:   fastRetry(3),
		Breaker: BreakerPolicy{TripAfter: 100},
	}
	res.Retry.TryTimeout = 30 * time.Millisecond
	h := newResilientHarness(t, res)
	h.seed(t, "slow server")

	// The first attempt hangs until its per-attempt budget expires; the
	// retry goes through. Without TryTimeout this save would block forever.
	h.flaky.set(func(f *faultyTransport) { f.hangNext = 1 })
	if err := h.client.Insert(0, "x"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := h.client.Save(); err != nil {
		t.Fatalf("save after hung attempt: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("save took %v; per-attempt budget not applied", elapsed)
	}
	if got := h.ext.Stats().Retries; got < 1 {
		t.Errorf("Retries = %d, want >= 1", got)
	}
}

func TestBreakerTripsIntoDegradedModeAndDrains(t *testing.T) {
	h := newResilientHarness(t, Resilience{
		Retry:   fastRetry(1),
		Breaker: BreakerPolicy{TripAfter: 2, Cooldown: time.Hour, MaxCooldown: 2 * time.Hour},
	})
	const secret = "meet at the old mill at midnight"
	h.seed(t, secret)

	// Hard outage: two failed loads trip the per-document breaker. (Loads
	// leave the encryption editor intact, so degraded mode has local state
	// to serve.)
	h.flaky.set(func(f *faultyTransport) { f.down = true })
	for i := 0; i < 2; i++ {
		if err := h.client.Load(); err == nil {
			t.Fatal("load succeeded through a dead transport")
		}
	}
	if got := h.ext.Stats().BreakerTrips; got != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", got)
	}
	if !h.ext.Session(h.client.DocID()).Degraded() {
		t.Fatal("extension not degraded after breaker trip")
	}

	// Degraded saves: absorbed locally, acked with the degraded header.
	if err := h.client.Insert(len(secret), " Bring the ledger."); err != nil {
		t.Fatal(err)
	}
	if err := h.client.Save(); err != nil {
		t.Fatalf("degraded save: %v", err)
	}
	if !h.client.Degraded() {
		t.Error("client not marked degraded after a queued save")
	}
	if err := h.client.Insert(0, "URGENT: "); err != nil {
		t.Fatal(err)
	}
	if err := h.client.Save(); err != nil {
		t.Fatalf("second degraded save: %v", err)
	}
	want := "URGENT: " + secret + " Bring the ledger."

	// Degraded loads serve the queued shadow.
	if err := h.client.Load(); err != nil {
		t.Fatalf("degraded load: %v", err)
	}
	if h.client.Text() != want {
		t.Errorf("degraded load text = %q, want %q", h.client.Text(), want)
	}
	if !h.client.Degraded() {
		t.Error("degraded load not marked")
	}
	s := h.ext.Stats()
	if s.DegradedSaves != 2 || s.DegradedLoads != 1 {
		t.Errorf("DegradedSaves/Loads = %d/%d, want 2/1", s.DegradedSaves, s.DegradedLoads)
	}
	// Nothing must have reached the dead server after the trip.
	if s.Drains != 0 {
		t.Errorf("Drains = %d before recovery", s.Drains)
	}

	// Recovery: heal the transport and fast-forward past the cooldown so
	// the next request half-opens the breaker and drains the queue.
	h.flaky.set(func(f *faultyTransport) { f.down = false })
	h.ext.res.now = func() time.Time { return time.Now().Add(3 * time.Hour) }

	if err := h.client.Insert(0, "PS. "); err != nil {
		t.Fatal(err)
	}
	if err := h.client.Sync(); err != nil {
		t.Fatalf("sync after recovery: %v", err)
	}
	want = "PS. " + want
	if h.client.Degraded() {
		t.Error("client still degraded after recovery")
	}
	if h.ext.Session(h.client.DocID()).Degraded() {
		t.Error("extension still degraded after drain")
	}
	s = h.ext.Stats()
	if s.Drains != 1 {
		t.Errorf("Drains = %d, want 1", s.Drains)
	}

	// The drained state must be durable and byte-correct on the server.
	plainCheck(t, h, want)
}

// plainCheck verifies the server-stored container decrypts to want and a
// fresh mediated session sees the same text.
func plainCheck(t *testing.T, h *resilientHarness, want string) {
	t.Helper()
	stored, _, err := h.server.Content(context.Background(), h.client.DocID())
	if err != nil {
		t.Fatalf("server content: %v", err)
	}
	plain, err := core.DecryptWith("hunter2", stored, core.Options{})
	if err != nil {
		t.Fatalf("stored container does not decrypt: %v", err)
	}
	if plain != want {
		t.Errorf("server plaintext = %q, want %q", plain, want)
	}
	fresh := New(h.ts.Client().Transport, StaticPassword("hunter2", core.Options{}))
	fc := gdocs.NewClient(fresh.Client(), h.ts.URL, h.client.DocID())
	if err := fc.Load(); err != nil {
		t.Fatalf("fresh load: %v", err)
	}
	if fc.Text() != want {
		t.Errorf("fresh session text = %q, want %q", fc.Text(), want)
	}
}

func TestDegradedUnavailableWithoutLocalState(t *testing.T) {
	h := newResilientHarness(t, Resilience{
		Retry:   fastRetry(1),
		Breaker: BreakerPolicy{TripAfter: 1, Cooldown: time.Hour},
	})
	// Total outage before the document was ever loaded: there is no local
	// state to serve, so degraded mode must refuse rather than invent.
	h.flaky.set(func(f *faultyTransport) { f.down = true })
	if err := h.client.Load(); err == nil {
		t.Fatal("first load succeeded through a dead transport")
	}
	err := h.client.Load() // breaker now open, no shadow, no editor
	if err == nil {
		t.Fatal("degraded load with no state succeeded")
	}
	if !strings.Contains(err.Error(), "503") {
		t.Errorf("error %q, want a 503 refusal", err)
	}
	if got := h.ext.Stats().DegradedLoads; got != 0 {
		t.Errorf("DegradedLoads = %d for a refused load", got)
	}
}

// TestCloseReleasesBreakerGauges closes a session whose breaker is open
// and whose degraded save is still queued: both process-wide gauges must
// drop back, since the session that held them is gone.
func TestCloseReleasesBreakerGauges(t *testing.T) {
	was := obs.Default.Enabled()
	obs.Enable()
	t.Cleanup(func() { obs.Default.SetEnabled(was) })
	open0, queued0 := metricBreakerOpenDocs.Value(), metricQueuedSaves.Value()

	h := newResilientHarness(t, Resilience{
		Retry:   fastRetry(1),
		Breaker: BreakerPolicy{TripAfter: 1, Cooldown: time.Hour},
	})
	h.seed(t, "draft")
	h.flaky.set(func(f *faultyTransport) { f.down = true })
	if err := h.client.Load(); err == nil {
		t.Fatal("load succeeded through a dead transport")
	}
	if err := h.client.Insert(5, " two"); err != nil {
		t.Fatal(err)
	}
	if err := h.client.Save(); err != nil {
		t.Fatalf("degraded save: %v", err)
	}
	if got := metricBreakerOpenDocs.Value() - open0; got != 1 {
		t.Fatalf("breaker_open_docs rose by %v after the trip, want 1", got)
	}
	if got := metricQueuedSaves.Value() - queued0; got != 1 {
		t.Fatalf("queued_saves rose by %v after a degraded save, want 1", got)
	}

	if err := h.ext.Session(h.client.DocID()).Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := h.ext.SessionCount(); n != 0 {
		t.Fatalf("SessionCount = %d after Close", n)
	}
	if got := metricBreakerOpenDocs.Value() - open0; got != 0 {
		t.Errorf("breaker_open_docs off by %v after Close", got)
	}
	if got := metricQueuedSaves.Value() - queued0; got != 0 {
		t.Errorf("queued_saves off by %v after Close", got)
	}
}

func TestBackoffScheduleDeterministicAndBounded(t *testing.T) {
	mk := func(seed int64) *Extension {
		return New(http.DefaultTransport, StaticPassword("x", core.Options{}),
			WithResilience(Resilience{Retry: RetryPolicy{
				MaxAttempts: 4,
				BaseBackoff: 5 * time.Millisecond,
				MaxBackoff:  80 * time.Millisecond,
				Seed:        seed,
			}}))
	}
	a, b := mk(9), mk(9)
	prevA, prevB := time.Duration(0), time.Duration(0)
	for i := 0; i < 50; i++ {
		da := a.nextBackoff(prevA)
		db := b.nextBackoff(prevB)
		if da != db {
			t.Fatalf("step %d: same seed drew %v vs %v", i, da, db)
		}
		if da < 5*time.Millisecond || da > 80*time.Millisecond {
			t.Fatalf("step %d: backoff %v outside [base, max]", i, da)
		}
		prevA, prevB = da, db
	}
	c := mk(10)
	prevC, distinct := time.Duration(0), false
	prevA = 0
	for i := 0; i < 50; i++ {
		da, dc := a.nextBackoff(prevA), c.nextBackoff(prevC)
		if da != dc {
			distinct = true
		}
		prevA, prevC = da, dc
	}
	if !distinct {
		t.Error("different seeds produced identical 50-step schedules")
	}
}

func TestInfraFailureClassification(t *testing.T) {
	req, _ := http.NewRequest(http.MethodGet, "http://x/", nil)
	cases := []struct {
		name string
		resp *http.Response
		err  error
		want bool
	}{
		{"transport error", nil, errInjected, true},
		{"500", synthesize(req, 500, ""), nil, true},
		{"429", synthesize(req, 429, ""), nil, true},
		{"409 conflict is logical", synthesize(req, 409, ""), nil, false},
		{"403 blocked is logical", synthesize(req, 403, ""), nil, false},
		{"200", synthesize(req, 200, ""), nil, false},
	}
	for _, tc := range cases {
		if got := infraFailure(tc.resp, tc.err); got != tc.want {
			t.Errorf("%s: infraFailure = %v, want %v", tc.name, got, tc.want)
		}
	}
}
