package blockdoc

import (
	"fmt"
	"strings"

	"privedit/internal/crypt"
	"privedit/internal/parallel"
	"privedit/internal/skiplist"
)

// Document is an encrypted block document: the client-side state the
// extension keeps so it can translate plaintext edits into ciphertext
// deltas ("It also maintains a copy of the state of the ciphertext
// document which is needed to transform the delta", §IV-B).
type Document struct {
	codec        Codec
	header       Header
	blockChars   int
	list         *skiplist.List[*Block]
	schemePrefix []byte // codec prefix region (r0 record / start block)
	trailer      []byte // codec trailer region (RPC checksum), may be nil

	prefixChars  int // transport chars of header+scheme prefix
	recordChars  int // transport chars per record
	trailerChars int // transport chars of trailer

	// workers bounds the goroutines used when (de)serializing the record
	// stream (0 = GOMAXPROCS, 1 = serial). Small documents always take
	// the serial path; see internal/parallel.
	workers int

	// coalesceOff disables delta coalescing in TransformDelta (benchmarks
	// measuring the uncoalesced splice loop only).
	coalesceOff bool

	// spliceText is the reusable assembly buffer for splice replacement
	// text (prefixPart + insertion + suffixPart). A Document is
	// single-threaded by contract, so one scratch buffer suffices; codecs
	// copy chunk bytes into blocks they own, so the buffer can be reused
	// across splices.
	spliceText []byte
	// chunkScratch is the reusable chunk-header slice handed to the codec.
	chunkScratch [][]byte
}

// New creates an empty encrypted document for the given codec.
// blockChars is the paper's b parameter (1..codec.MaxChars()); salt is the
// key-derivation salt recorded in the container header, and keyCheck the
// password verifier derived from the document key.
func New(codec Codec, blockChars int, salt [SaltLen]byte, keyCheck [KeyCheckLen]byte) (*Document, error) {
	if blockChars < 1 || blockChars > codec.MaxChars() {
		return nil, fmt.Errorf("blockdoc: block size %d outside 1..%d", blockChars, codec.MaxChars())
	}
	d := &Document{
		codec:      codec,
		blockChars: blockChars,
		header: Header{
			SchemeID:   codec.ID(),
			BlockChars: byte(blockChars),
			Salt:       salt,
			KeyCheck:   keyCheck,
		},
		prefixChars:  crypt.TransportLen(headerBytes + codec.PrefixBytes()),
		recordChars:  crypt.TransportLen(codec.RecordBytes()),
		trailerChars: 0,
	}
	if codec.TrailerBytes() > 0 {
		d.trailerChars = crypt.TransportLen(codec.TrailerBytes())
	}
	seed := crypt.Uint64(salt[:8])
	d.list = skiplist.New[*Block](seed)
	if err := d.LoadPlaintext(""); err != nil {
		return nil, err
	}
	return d, nil
}

// SetWorkers bounds the worker goroutines used by the container
// (de)serialization kernels: 0 selects GOMAXPROCS, 1 forces serial. The
// serialized container is identical either way.
func (d *Document) SetWorkers(n int) { d.workers = n }

// SetCoalesce toggles delta coalescing in TransformDelta (on by default).
// Coalescing never changes the resulting document, only how many splices —
// and therefore which ciphertext delta — produce it; turning it off exists
// for benchmarks that measure the uncoalesced splice loop.
func (d *Document) SetCoalesce(enabled bool) { d.coalesceOff = !enabled }

// Header returns the container header.
func (d *Document) Header() Header { return d.header }

// SchemeName returns the codec's name.
func (d *Document) SchemeName() string { return d.codec.Name() }

// BlockChars returns the document's b parameter.
func (d *Document) BlockChars() int { return d.blockChars }

// Len returns the plaintext length in characters.
func (d *Document) Len() int { return d.list.TotalPrimary() }

// Blocks returns the number of data blocks.
func (d *Document) Blocks() int { return d.list.Len() }

// TransportLen returns the length in characters of the transport string,
// without serializing it.
func (d *Document) TransportLen() int {
	return d.prefixChars + d.list.Len()*d.recordChars + d.trailerChars
}

// chunk splits text into pieces of at most b characters. Every piece is
// non-empty; text "" yields no pieces.
func (d *Document) chunk(text []byte) [][]byte {
	if len(text) == 0 {
		return nil
	}
	chunks := make([][]byte, 0, (len(text)+d.blockChars-1)/d.blockChars)
	for len(text) > d.blockChars {
		chunks = append(chunks, text[:d.blockChars])
		text = text[d.blockChars:]
	}
	chunks = append(chunks, text)
	return chunks
}

// chunkScratched is chunk backed by the document's reusable chunk-header
// slice: the headers (not the bytes they point at) are valid only until the
// next call. Used on the splice hot path, where the codec consumes the
// chunks before the next splice begins.
func (d *Document) chunkScratched(text []byte) [][]byte {
	chunks := d.chunkScratch[:0]
	for len(text) > d.blockChars {
		chunks = append(chunks, text[:d.blockChars])
		text = text[d.blockChars:]
	}
	if len(text) > 0 {
		chunks = append(chunks, text)
	}
	d.chunkScratch = chunks
	return chunks
}

// LoadPlaintext (re)builds the entire encrypted document from text: the
// scheme's full Enc function, used on the first save of an editing session.
func (d *Document) LoadPlaintext(text string) error {
	chunks := d.chunk([]byte(text))
	prefix, blocks, trailer, err := d.codec.EncryptAll(chunks)
	if err != nil {
		return fmt.Errorf("blockdoc: encrypt all: %w", err)
	}
	builder := skiplist.NewBuilder[*Block](crypt.Uint64(d.header.Salt[:8]))
	builder.Grow(len(blocks))
	for _, b := range blocks {
		builder.Append(b, len(b.Chars), d.recordChars)
	}
	d.list = builder.List()
	d.schemePrefix = prefix
	d.trailer = trailer
	return nil
}

// LoadTransport opens an existing container (the scheme's Dec function plus
// integrity verification), priming the document for incremental operation.
func (d *Document) LoadTransport(transport string) error {
	h, err := PeekHeader(transport)
	if err != nil {
		return err
	}
	if h.SchemeID != d.codec.ID() {
		// int() marks the ids as discriminators, not content.
		return fmt.Errorf("%w: container scheme %d, codec %d", ErrCorrupt, int(h.SchemeID), int(d.codec.ID()))
	}
	if int(h.BlockChars) != d.blockChars {
		return fmt.Errorf("%w: container block size %d, document %d", ErrCorrupt, int(h.BlockChars), d.blockChars)
	}
	if h.KeyCheck != d.header.KeyCheck {
		return fmt.Errorf("%w: key check mismatch (wrong password?)", ErrCorrupt)
	}
	if len(transport) < d.prefixChars+d.trailerChars {
		return fmt.Errorf("%w: transport length %d below minimum %d", ErrCorrupt, len(transport), d.prefixChars+d.trailerChars)
	}
	body := transport[d.prefixChars:]
	var trailerRaw []byte
	if d.trailerChars > 0 {
		if (len(body)-d.trailerChars)%d.recordChars != 0 {
			return fmt.Errorf("%w: body of %d chars is not whole records", ErrCorrupt, len(body))
		}
		trailerRaw, err = crypt.DecodeTransport(body[len(body)-d.trailerChars:])
		if err != nil {
			return fmt.Errorf("%w: trailer: %v", ErrCorrupt, err)
		}
		body = body[:len(body)-d.trailerChars]
	} else if len(body)%d.recordChars != 0 {
		return fmt.Errorf("%w: body of %d chars is not whole records", ErrCorrupt, len(body))
	}
	prefixRaw, err := crypt.DecodeTransport(transport[:d.prefixChars])
	if err != nil {
		return fmt.Errorf("%w: prefix: %v", ErrCorrupt, err)
	}
	if _, err := decodeHeader(prefixRaw); err != nil {
		return err
	}
	schemePrefix := prefixRaw[headerBytes:]

	// Decode the record stream into one arena: each record is a strided
	// sub-slice of a single backing array, decoded in place with the
	// zero-allocation transport decoder (2n small allocations per load
	// before the batched kernels).
	n := len(body) / d.recordChars
	rb := d.codec.RecordBytes()
	records := make([][]byte, n)
	raw := make([]byte, n*rb)
	decodeRange := func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			rec := raw[i*rb : (i+1)*rb : (i+1)*rb]
			if err := crypt.DecodeTransportInto(rec, body[i*d.recordChars:(i+1)*d.recordChars]); err != nil {
				return fmt.Errorf("%w: record %d: %v", ErrCorrupt, i, err)
			}
			records[i] = rec
		}
		return nil
	}
	if err := parallel.Range(n, parallel.Plan(n, d.workers, parallel.MinParallelBlocks), decodeRange); err != nil {
		return err
	}

	blocks, err := d.codec.DecryptAll(schemePrefix, records, trailerRaw)
	if err != nil {
		return err
	}
	builder := skiplist.NewBuilder[*Block](crypt.Uint64(h.Salt[:8]))
	builder.Grow(len(blocks))
	for _, b := range blocks {
		builder.Append(b, len(b.Chars), d.recordChars)
	}
	d.list = builder.List()
	d.header = h
	d.schemePrefix = schemePrefix
	d.trailer = trailerRaw
	return nil
}

// Plaintext reassembles the document text from the in-memory blocks.
func (d *Document) Plaintext() string {
	var b strings.Builder
	b.Grow(d.Len())
	_ = d.list.Each(0, func(_ int, blk *Block, _, _ int) bool {
		b.Write(blk.Chars)
		return true
	})
	return b.String()
}

// Transport serializes the full ciphertext container: what the server
// stores in place of the plaintext document. Every record occupies a fixed
// character slot, so large documents encode their record stream in parallel
// into one shared buffer.
//
//taint:sanitizer encodes encrypted records only
func (d *Document) Transport() string {
	n := d.list.Len()
	buf := make([]byte, d.TransportLen())
	prefixRaw := append(d.header.encode(), d.schemePrefix...)
	crypt.EncodeTransportInto(buf[:d.prefixChars], prefixRaw)
	if w := parallel.Plan(n, d.workers, parallel.MinParallelBlocks); w > 1 {
		// Parallel path: gather the block pointers with one cheap list
		// walk, then let each worker Base32-encode its record range
		// directly into the record's fixed offset of the output buffer.
		blocks := make([]*Block, 0, n)
		_ = d.list.Each(0, func(_ int, blk *Block, _, _ int) bool {
			blocks = append(blocks, blk)
			return true
		})
		_ = parallel.Range(n, w, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				off := d.prefixChars + i*d.recordChars
				crypt.EncodeTransportInto(buf[off:off+d.recordChars], blocks[i].Record)
			}
			return nil
		})
	} else {
		// Serial path: encode each record into its fixed slot during the
		// list walk itself — no per-record string, no gather.
		i := 0
		_ = d.list.Each(0, func(_ int, blk *Block, _, _ int) bool {
			off := d.prefixChars + i*d.recordChars
			crypt.EncodeTransportInto(buf[off:off+d.recordChars], blk.Record)
			i++
			return true
		})
	}
	if d.trailerChars > 0 {
		crypt.EncodeTransportInto(buf[len(buf)-d.trailerChars:], d.trailer)
	}
	return string(buf)
}

// SelfCheck round-trips the document through its own serialized form,
// exercising the codec's verification (for RPC, the full integrity check).
func (d *Document) SelfCheck() error {
	probe, err := New(d.codec, d.blockChars, d.header.Salt, d.header.KeyCheck)
	if err != nil {
		return err
	}
	if err := probe.LoadTransport(d.Transport()); err != nil {
		return err
	}
	if probe.Plaintext() != d.Plaintext() {
		return fmt.Errorf("%w: reloaded plaintext differs", ErrIntegrity)
	}
	return nil
}

// Stats summarizes the document for the evaluation harness.
type Stats struct {
	Scheme       string
	BlockChars   int
	PlainLen     int
	Blocks       int
	TransportLen int
	AvgFill      float64 // mean characters per block
	Blowup       float64 // transport chars per plaintext char
}

// Stats returns current document statistics.
func (d *Document) Stats() Stats {
	s := Stats{
		Scheme:       d.codec.Name(),
		BlockChars:   d.blockChars,
		PlainLen:     d.Len(),
		Blocks:       d.Blocks(),
		TransportLen: d.TransportLen(),
	}
	if s.Blocks > 0 {
		s.AvgFill = float64(s.PlainLen) / float64(s.Blocks)
	}
	if s.PlainLen > 0 {
		s.Blowup = float64(s.TransportLen) / float64(s.PlainLen)
	}
	return s
}
