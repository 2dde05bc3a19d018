package bench

import "testing"

// TestHotpathEquivalence runs a small hot-path pass; Hotpath itself fails
// if any variant's plaintext diverges or the batched kernel changes bytes.
func TestHotpathEquivalence(t *testing.T) {
	art, err := Hotpath(HotpathConfig{DocChars: 2_000, Ops: 150, BurstLen: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Rows) != 3 {
		t.Fatalf("expected 3 variants, got %d", len(art.Rows))
	}
	for _, r := range art.Rows {
		if r.Ops != 150 {
			t.Fatalf("%s: replayed %d ops, want 150", r.Variant, r.Ops)
		}
	}
	// Coalescing must shrink the cumulative ciphertext delta traffic: one
	// splice per burst instead of one per keystroke.
	if c, b := art.Rows[1].CipherBytes, art.Rows[0].CipherBytes; c >= b {
		t.Fatalf("coalescing did not reduce cipher delta bytes: %d vs %d", c, b)
	}
}
