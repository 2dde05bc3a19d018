// Package e2e holds whole-system integration tests: every layer of the
// reproduction composed together — client application, covert mitigations,
// stego transport, mediating extension, simulated network, simulated
// service — exercised over real HTTP.
package e2e

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"privedit/internal/core"
	"privedit/internal/covert"
	"privedit/internal/crypt"
	"privedit/internal/gdocs"
	"privedit/internal/mediator"
	"privedit/internal/netsim"
	"privedit/internal/stego"
	"privedit/internal/workload"
)

func opts(scheme core.Scheme, seed uint64) core.Options {
	return core.Options{
		Scheme:     scheme,
		BlockChars: 8,
		Nonces:     crypt.NewSeededNonceSource(seed),
	}
}

// TestFullStackLongSession drives a long, randomized editing session
// through every default layer and verifies at the end that (a) the server
// only ever saw ciphertext, (b) the stored container decrypts to the
// client's final text, and (c) a completely fresh session agrees.
func TestFullStackLongSession(t *testing.T) {
	for _, scheme := range []core.Scheme{core.ConfidentialityOnly, core.ConfidentialityIntegrity} {
		t.Run(scheme.String(), func(t *testing.T) {
			server := gdocs.NewServer()
			server.EnableObservation()
			ts := httptest.NewServer(server)
			defer ts.Close()

			mit := covert.New(covert.Config{CanonicalizeDeltas: true, PadQuantum: 32}, crypt.NewSeededNonceSource(99))
			ext := mediator.New(ts.Client().Transport, mediator.StaticPassword("pw", opts(scheme, 1)), mediator.WithMitigator(mit))
			client := gdocs.NewClient(ext.Client(), ts.URL, "long-session")

			if err := client.Create(); err != nil {
				t.Fatalf("Create: %v", err)
			}
			gen := workload.NewGen(777)
			client.SetText(gen.Document(2000))
			if err := client.Save(); err != nil {
				t.Fatalf("first save: %v", err)
			}

			for i := 0; i < 60; i++ {
				sp := gen.Edit(client.Text(), workload.InsertsAndDeletes)
				if sp.Del > 0 {
					if err := client.Delete(sp.Pos, sp.Del); err != nil {
						t.Fatalf("edit %d: %v", i, err)
					}
				}
				if sp.Ins != "" {
					if err := client.Insert(sp.Pos, sp.Ins); err != nil {
						t.Fatalf("edit %d: %v", i, err)
					}
				}
				if i%4 == 0 {
					if err := client.Save(); err != nil {
						t.Fatalf("save %d: %v", i, err)
					}
				}
			}
			if err := client.Save(); err != nil {
				t.Fatalf("final save: %v", err)
			}
			want := client.Text()

			// (a) no plaintext fragments at the server.
			observed := server.Observed()
			for i := 0; i+6 <= len(want) && i < 300; i += 7 {
				if strings.Contains(observed, want[i:i+6]) {
					t.Fatalf("plaintext fragment %q leaked", want[i:i+6])
				}
			}
			// (b) the stored container decrypts to the final text.
			stored, _, err := server.Content(context.Background(), "long-session")
			if err != nil {
				t.Fatalf("content: %v", err)
			}
			got, err := core.Decrypt("pw", stored)
			if err != nil || got != want {
				t.Fatalf("stored container mismatch (err %v)", err)
			}
			// (c) a fresh session agrees.
			ext2 := mediator.New(ts.Client().Transport, mediator.StaticPassword("pw", opts(scheme, 2)))
			client2 := gdocs.NewClient(ext2.Client(), ts.URL, "long-session")
			if err := client2.Load(); err != nil {
				t.Fatalf("fresh load: %v", err)
			}
			if client2.Text() != want {
				t.Fatal("fresh session sees different text")
			}
		})
	}
}

// TestSizeLimitInteraction reproduces the motivation for multi-character
// blocks: with b=1 the 500 KB quota rejects a document that fits easily at
// b=8 (§V-C: "this blow-up greatly limits the size of documents").
func TestSizeLimitInteraction(t *testing.T) {
	server := gdocs.NewServer()
	server.SetMaxBytes(64 * 1024) // scaled-down quota to keep the test fast
	ts := httptest.NewServer(server)
	defer ts.Close()

	text := workload.NewGen(5).Document(8000) // ~8 KB of prose

	// b=1: blowup ~28x -> ~224 KB container -> rejected.
	o1 := opts(core.ConfidentialityOnly, 10)
	o1.BlockChars = 1
	ext1 := mediator.New(ts.Client().Transport, mediator.StaticPassword("pw", o1))
	c1 := gdocs.NewClient(ext1.Client(), ts.URL, "doc-b1")
	if err := c1.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	c1.SetText(text)
	if err := c1.Save(); !errors.Is(err, gdocs.ErrTooLarge) {
		t.Errorf("b=1 save of 8KB doc = %v, want ErrTooLarge", err)
	}

	// b=8: blowup ~3.6x -> ~29 KB container -> accepted.
	o8 := opts(core.ConfidentialityOnly, 11)
	ext8 := mediator.New(ts.Client().Transport, mediator.StaticPassword("pw", o8))
	c8 := gdocs.NewClient(ext8.Client(), ts.URL, "doc-b8")
	if err := c8.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	c8.SetText(text)
	if err := c8.Save(); err != nil {
		t.Errorf("b=8 save of 8KB doc = %v, want success", err)
	}
}

// TestStegoOverDelayedNetwork composes the stego transport with the
// netsim delay layer: the full pipeline works over a "slow network" and
// the provider stores innocuous-looking prose.
func TestStegoOverDelayedNetwork(t *testing.T) {
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	defer ts.Close()

	slow := &netsim.DelayTransport{
		Base:    ts.Client().Transport,
		Profile: netsim.Profile{RTT: 20 * time.Millisecond},
	}
	ext := mediator.New(slow, mediator.StaticPassword("pw", opts(core.ConfidentialityIntegrity, 20)),
		mediator.WithStego())
	client := gdocs.NewClient(ext.Client(), ts.URL, "slow-doc")

	start := time.Now()
	if err := client.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	client.SetText("hidden in plain sight")
	if err := client.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := client.Insert(0, "well "); err != nil {
		t.Fatal(err)
	}
	if err := client.Save(); err != nil {
		t.Fatalf("delta save: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("network delays not applied: %v", elapsed)
	}
	stored, _, err := server.Content(context.Background(), "slow-doc")
	if err != nil {
		t.Fatalf("content: %v", err)
	}
	if !stego.LooksInnocuous(stored) {
		t.Error("stored content looks like ciphertext")
	}
	ext2 := mediator.New(ts.Client().Transport, mediator.StaticPassword("pw", opts(core.ConfidentialityIntegrity, 21)),
		mediator.WithStego())
	client2 := gdocs.NewClient(ext2.Client(), ts.URL, "slow-doc")
	if err := client2.Load(); err != nil {
		t.Fatalf("load: %v", err)
	}
	if client2.Text() != "well hidden in plain sight" {
		t.Errorf("round trip = %q", client2.Text())
	}
}

// TestWrongSchemeContainersNeverConfused saves rECB and RPC documents side
// by side and verifies each opens only as itself.
func TestWrongSchemeContainersNeverConfused(t *testing.T) {
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	defer ts.Close()

	extA := mediator.New(ts.Client().Transport, mediator.StaticPassword("pw", opts(core.ConfidentialityOnly, 40)))
	extB := mediator.New(ts.Client().Transport, mediator.StaticPassword("pw", opts(core.ConfidentialityIntegrity, 41)))
	a := gdocs.NewClient(extA.Client(), ts.URL, "recb-doc")
	b := gdocs.NewClient(extB.Client(), ts.URL, "rpc-doc")
	for _, c := range []*gdocs.Client{a, b} {
		if err := c.Create(); err != nil {
			t.Fatalf("Create: %v", err)
		}
		c.SetText("scheme-tagged")
		if err := c.Save(); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	// The containers self-describe their scheme; Open picks it up.
	for _, id := range []string{"recb-doc", "rpc-doc"} {
		stored, _, err := server.Content(context.Background(), id)
		if err != nil {
			t.Fatalf("content: %v", err)
		}
		got, err := core.Decrypt("pw", stored)
		if err != nil || got != "scheme-tagged" {
			t.Errorf("%s: decrypt = (%q, %v)", id, got, err)
		}
	}
}
