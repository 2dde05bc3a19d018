// Hot-path microbenchmark: quantifies plaintext delta coalescing, the
// profiling-driven optimization on the transform_delta pipeline, on a
// burst-edit workload shaped like the paper's Figure 6 typing traces (runs
// of single-character insertions and corrections at a moving cursor).
//
// Three variants replay the identical op tape on identically seeded
// documents: baseline (coalescing off) and coalesce (coalescing on), both
// pinned to the reference serial crypto kernel (Workers=1) so the toggle is
// measured against a fixed kernel, plus batch, which is coalesce on the
// batched arena kernel (Workers=0). The kernel switch must be invisible in
// the bytes — batch is asserted byte-identical to coalesce, pinning the
// serial/batched ciphertext equivalence on the editing hot path.
// Coalescing legitimately changes which ciphertext deltas produce the
// document (fewer splices consume fewer nonces), so across that toggle
// only the final plaintext is asserted equal.
package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	// The op tape must be identical across the variants and across
	// runs, so it is drawn from a seeded deterministic generator. Nothing
	// here feeds key or nonce material: the codec's nonces come from a
	// crypt.NonceSource constructed separately.
	//lint:ignore nonce-source seeded generator for a reproducible benchmark op tape; never used for keys or nonces
	"math/rand"
	"runtime"
	"time"

	"privedit/internal/blockdoc"
	"privedit/internal/crypt"
	"privedit/internal/delta"
	"privedit/internal/rpcmode"
	"privedit/internal/workload"
)

// HotpathConfig parameterizes the hot-path run.
type HotpathConfig struct {
	DocChars   int   // initial document size
	BlockChars int   // block size b
	Ops        int   // burst deltas per variant
	BurstLen   int   // single-character edits per burst
	Seed       int64 // workload seed
}

func (c HotpathConfig) withDefaults() HotpathConfig {
	if c.DocChars <= 0 {
		c.DocChars = 20_000
	}
	if c.BlockChars <= 0 {
		c.BlockChars = 4
	}
	if c.Ops <= 0 {
		c.Ops = 2_000
	}
	if c.BurstLen <= 0 {
		c.BurstLen = 12
	}
	if c.Seed == 0 {
		c.Seed = 2011
	}
	return c
}

// HotpathRow is one variant's measurements.
type HotpathRow struct {
	Variant     string  `json:"variant"`
	Coalesce    bool    `json:"coalesce"`
	Workers     int     `json:"workers"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	P50Us       float64 `json:"p50_us"`
	P95Us       float64 `json:"p95_us"`
	P99Us       float64 `json:"p99_us"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	CipherBytes int     `json:"cipher_delta_bytes"`
	// TransportSHA256 is a digest of the final serialized container; equal
	// digests prove byte-identical ciphertext.
	TransportSHA256 string `json:"transport_sha256"`
}

// HotpathArtifact is the committed BENCH_hotpath.json document.
type HotpathArtifact struct {
	Title      string       `json:"title"`
	DocChars   int          `json:"doc_chars"`
	BlockChars int          `json:"block_chars"`
	BurstLen   int          `json:"burst_len"`
	Seed       int64        `json:"seed"`
	Rows       []HotpathRow `json:"rows"`
	// Improvements of the coalesce variant over the baseline, percent.
	P95ImprovementPct    float64 `json:"p95_improvement_pct"`
	AllocsImprovementPct float64 `json:"allocs_improvement_pct"`
}

// MarshalIndent renders the artifact for the committed JSON file.
func (a HotpathArtifact) MarshalIndent() ([]byte, error) {
	out, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// hotpathOp is one pre-generated burst delta.
type hotpathOp struct {
	pd delta.Delta
}

// hotpathTape generates the deterministic burst-edit op tape. Each burst
// opens at a cursor that usually stays local to the previous one and mixes
// single-character insertions with backspace-style corrections (the
// coalescer's target pattern).
func hotpathTape(cfg HotpathConfig, docLen int) []hotpathOp {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ops := make([]hotpathOp, 0, cfg.Ops)
	pos := docLen / 2
	length := docLen
	for i := 0; i < cfg.Ops; i++ {
		if rng.Intn(8) == 0 || pos > length {
			pos = rng.Intn(length + 1) // occasional long cursor jump
		} else if pos > 0 && rng.Intn(4) == 0 {
			pos -= rng.Intn(min(pos, 40) + 1) // local backwards move
		}
		pd := delta.Delta{delta.RetainOp(pos)}
		ins, dels := 0, 0
		for k := 0; k < cfg.BurstLen; k++ {
			if rng.Intn(4) == 0 && pos+dels < length {
				// Correction: the next source character is overwritten.
				pd = append(pd, delta.DeleteOp(1))
				dels++
			} else {
				pd = append(pd, delta.InsertOp(string(rune('a'+rng.Intn(26)))))
				ins++
			}
		}
		length += ins - dels
		pos += ins
		ops = append(ops, hotpathOp{pd: pd})
	}
	return ops
}

// hotpathVariant replays the tape on a fresh, identically seeded document.
// workers selects the crypto kernel: 1 pins the reference serial kernel,
// 0 the batched arena kernel.
func hotpathVariant(cfg HotpathConfig, name string, coalesce bool, workers int, text string, tape []hotpathOp) (HotpathRow, string, error) {
	key := make([]byte, crypt.KeySize)
	for i := range key {
		key[i] = byte(i * 7)
	}
	codec, err := rpcmode.New(key, crypt.NewSeededNonceSource(uint64(cfg.Seed)))
	if err != nil {
		return HotpathRow{}, "", err
	}
	codec.SetWorkers(workers)
	var salt [blockdoc.SaltLen]byte
	copy(salt[:], "hotpath-salt-hot")
	doc, err := blockdoc.New(codec, cfg.BlockChars, salt, [blockdoc.KeyCheckLen]byte{})
	if err != nil {
		return HotpathRow{}, "", err
	}
	doc.SetWorkers(workers)
	if err := doc.LoadPlaintext(text); err != nil {
		return HotpathRow{}, "", err
	}
	doc.SetCoalesce(coalesce)

	var lat Sample
	cipherBytes := 0
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i, op := range tape {
		opStart := time.Now()
		cd, err := doc.TransformDelta(op.pd)
		if err != nil {
			// Index and op count only: the delta carries document content.
			return HotpathRow{}, "", fmt.Errorf("%s: transform op %d (%d ops): %w", name, i, len(op.pd), err)
		}
		lat.Add(time.Since(opStart).Seconds())
		cipherBytes += len(cd.String())
	}
	total := time.Since(t0)
	runtime.ReadMemStats(&after)

	transport := doc.Transport()
	sum := sha256.Sum256([]byte(transport))
	row := HotpathRow{
		Variant:         name,
		Coalesce:        coalesce,
		Workers:         workers,
		Ops:             len(tape),
		NsPerOp:         float64(total.Nanoseconds()) / float64(len(tape)),
		P50Us:           lat.Percentile(0.50) * 1e6,
		P95Us:           lat.Percentile(0.95) * 1e6,
		P99Us:           lat.Percentile(0.99) * 1e6,
		AllocsPerOp:     float64(after.Mallocs-before.Mallocs) / float64(len(tape)),
		BytesPerOp:      float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tape)),
		CipherBytes:     cipherBytes,
		TransportSHA256: hex.EncodeToString(sum[:8]),
	}
	return row, doc.Plaintext(), nil
}

// Hotpath runs all three variants and cross-checks their equivalence.
func Hotpath(cfg HotpathConfig) (HotpathArtifact, error) {
	cfg = cfg.withDefaults()
	gen := workload.NewGen(cfg.Seed)
	text := gen.Document(cfg.DocChars)
	tape := hotpathTape(cfg, len(text))

	variants := []struct {
		name     string
		coalesce bool
		workers  int
	}{
		{"baseline", false, 1},
		{"coalesce", true, 1},
		{"batch", true, 0},
	}
	art := HotpathArtifact{
		Title:      "Hot path: delta coalescing on burst edits",
		DocChars:   cfg.DocChars,
		BlockChars: cfg.BlockChars,
		BurstLen:   cfg.BurstLen,
		Seed:       cfg.Seed,
	}
	// Warm-up pass: page in code and steady-state the heap so the first
	// measured variant isn't charged for process cold start.
	warm := tape
	if len(warm) > 200 {
		warm = warm[:200]
	}
	if _, _, err := hotpathVariant(cfg, "warmup", false, 1, text, warm); err != nil {
		return art, err
	}

	plains := make([]string, len(variants))
	for i, v := range variants {
		row, plain, err := hotpathVariant(cfg, v.name, v.coalesce, v.workers, text, tape)
		if err != nil {
			return art, err
		}
		art.Rows = append(art.Rows, row)
		plains[i] = plain
	}

	// Equivalence: every variant converges to the same plaintext; switching
	// only the crypto kernel leaves the serialized ciphertext byte-identical.
	for i := 1; i < len(plains); i++ {
		if plains[i] != plains[0] {
			return art, fmt.Errorf("hotpath: variant %s plaintext diverged from baseline", art.Rows[i].Variant)
		}
	}
	if art.Rows[2].TransportSHA256 != art.Rows[1].TransportSHA256 {
		return art, fmt.Errorf("hotpath: batched kernel changed the ciphertext (%s vs %s)",
			art.Rows[2].TransportSHA256, art.Rows[1].TransportSHA256)
	}

	base, coal := art.Rows[0], art.Rows[1]
	if base.P95Us > 0 {
		art.P95ImprovementPct = 100 * (base.P95Us - coal.P95Us) / base.P95Us
	}
	if base.AllocsPerOp > 0 {
		art.AllocsImprovementPct = 100 * (base.AllocsPerOp - coal.AllocsPerOp) / base.AllocsPerOp
	}
	return art, nil
}

// String renders the artifact as a paper-style table.
func (a HotpathArtifact) String() string {
	s := fmt.Sprintf("Hot path: burst edits (%d-char doc, b=%d, bursts of %d)\n",
		a.DocChars, a.BlockChars, a.BurstLen)
	s += fmt.Sprintf("  %-10s %9s %9s %9s %11s %12s  %s\n",
		"variant", "ns/op", "p95 us", "p99 us", "allocs/op", "bytes/op", "transport")
	for _, r := range a.Rows {
		s += fmt.Sprintf("  %-10s %9.0f %9.1f %9.1f %11.1f %12.0f  %s\n",
			r.Variant, r.NsPerOp, r.P95Us, r.P99Us, r.AllocsPerOp, r.BytesPerOp, r.TransportSHA256)
	}
	s += fmt.Sprintf("  coalesce vs baseline: p95 %.1f%% better, allocs/op %.1f%% better\n",
		a.P95ImprovementPct, a.AllocsImprovementPct)
	return s
}
