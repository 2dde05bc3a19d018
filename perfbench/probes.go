package main

import (
	"time"

	"privedit/internal/core"
	"privedit/internal/crypt"
)

// probeResult holds the direct calls into core and crypt, made after the
// traced run on the workload's own inputs.
type probeResult struct {
	kdfMs          float64 // median DeriveDocumentKey
	openUsPerKchar float64 // core.OpenWith time per thousand plaintext characters
	spliceUsP50    float64 // median Editor.Splice replaying the keystroke tape
}

const (
	kdfReps  = 15
	openReps = 3
)

func probe(transports []string, start string, tape []key) (probeResult, error) {
	var r probeResult
	salt := make([]byte, 16)
	kdf := make([]float64, 0, kdfReps)
	for i := 0; i < kdfReps; i++ {
		t := time.Now()
		crypt.DeriveDocumentKey(password, salt)
		kdf = append(kdf, float64(time.Since(t))/1e6)
	}
	r.kdfMs = pct(kdf, 0.5)

	var openNs, kchars float64
	for _, tr := range transports {
		for i := 0; i < openReps; i++ {
			t := time.Now()
			ed, err := core.OpenWith(password, tr, core.Options{})
			if err != nil {
				return r, err
			}
			openNs += float64(time.Since(t))
			kchars += float64(ed.Len()) / 1e3
		}
	}
	r.openUsPerKchar = ratio(openNs/1e3, kchars)

	if len(tape) == 0 {
		return r, nil
	}
	ed, err := core.NewEditor(password, docOptions)
	if err != nil {
		return r, err
	}
	if _, err := ed.Encrypt(start); err != nil {
		return r, err
	}
	splice := make([]float64, 0, len(tape))
	for _, k := range tape {
		// A coedit tape was typed against a text the other author also
		// changed; clamp it to the probe's own text.
		pos := min(k.pos, ed.Len())
		del := min(k.del, ed.Len()-pos)
		t := time.Now()
		if _, err := ed.Splice(pos, del, k.ins); err != nil {
			return r, err
		}
		splice = append(splice, float64(time.Since(t))/1e3)
	}
	r.spliceUsP50 = pct(splice, 0.5)
	return r, nil
}
