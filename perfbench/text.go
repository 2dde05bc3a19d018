package main

import (
	"strings"
)

// vocabulary is the word list seeded prose is drawn from. Plaintext uses
// lower-case letters, space and '.', an alphabet disjoint from the upper
// case Base32 of stored ciphertext, which keeps the leak check exact.
var vocabulary = strings.Fields(`the a of and to in is it that for on with as
	document cloud editor private key block server client save change delta
	cipher text user share draft note meeting plan budget report review
	version secure local remote word line page section table figure paper
	result method data system design draft notes quarter team schedule
	office budget travel summary agenda minutes action item owner deadline
	release feature customer contract invoice payment policy privacy`)

// rng is a seeded SplitMix64 generator for the benchmark's inputs. Like
// the program's own jitter sources it stays off math/rand, which the
// repository's lint keeps out of non-test code.
type rng struct{ s uint64 }

func newRNG(seed int64) *rng { return &rng{s: uint64(seed)} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n); the modulo bias is negligible for the
// small n the benchmark draws.
func (r *rng) Intn(n int) int { return int(r.next() % uint64(n)) }

// Float64 returns a value in [0, 1).
func (r *rng) Float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// proseStream yields seeded lower-case prose one byte at a time.
type proseStream struct {
	r   *rng
	buf string
}

func (p *proseStream) next() byte {
	for p.buf == "" {
		w := vocabulary[p.r.Intn(len(vocabulary))]
		if p.r.Intn(12) == 0 {
			w += "."
		}
		p.buf = w + " "
	}
	c := p.buf[0]
	p.buf = p.buf[1:]
	return c
}

// prose returns n bytes of seeded prose.
func prose(r *rng, n int) string {
	var b strings.Builder
	b.Grow(n)
	s := proseStream{r: r}
	for b.Len() < n {
		b.WriteByte(s.next())
	}
	return b.String()
}

func isPlainByte(c byte) bool { return c >= 'a' && c <= 'z' || c == ' ' || c == '.' }

// key is one keystroke as the editor applies it: replace del characters
// at pos with ins.
type key struct {
	pos, del int
	ins      string
}

// replay applies a keystroke tape to text.
func replay(text string, tape []key) string {
	b := []byte(text)
	for _, k := range tape {
		copy(b[k.pos:], b[k.pos+k.del:])
		b = b[:len(b)-k.del]
		b = append(b, k.ins...)
		copy(b[k.pos+len(k.ins):], b[k.pos:len(b)-len(k.ins)])
		copy(b[k.pos:], k.ins)
	}
	return string(b)
}

// Burst shape: 12 to 20 keystrokes at one caret, mostly typing while the
// document is under its target length and mostly deleting while over it,
// so the length stays near the target however long a run lasts.
const (
	burstMin    = 12
	burstSpread = 9
	pMajority   = 0.88
)

// typist produces one author's seeded keystroke bursts.
type typist struct {
	r      *rng
	text   proseStream
	target int
	onRun  func(run string) // receives each run of consecutive typed characters

	caret int
	left  int
	grow  bool
	run   []byte
}

func newTypist(seed int64, target int, onRun func(string)) *typist {
	r := newRNG(seed)
	return &typist{r: r, text: proseStream{r: newRNG(seed ^ 0x5eed)}, target: target, onRun: onRun}
}

// startBurst places the caret in a document of n characters.
func (t *typist) startBurst(n int) {
	t.caret = t.r.Intn(n + 1)
	t.left = burstMin + t.r.Intn(burstSpread)
	t.grow = n < t.target
}

// next returns the burst's next keystroke against a document of n
// characters, or ok=false when the burst is over.
func (t *typist) next(n int) (k key, ok bool) {
	if t.left == 0 {
		t.endRun()
		return key{}, false
	}
	t.left--
	t.caret = min(t.caret, n)
	p := t.r.Float64()
	insert := p < pMajority
	if !t.grow {
		insert = p >= pMajority
	}
	if !insert && n > 0 {
		// Backspace or forward delete, as the caret allows.
		t.endRun()
		if t.caret == n || (t.caret > 0 && t.r.Intn(2) == 0) {
			t.caret--
		}
		return key{pos: t.caret, del: 1}, true
	}
	c := t.text.next()
	t.run = append(t.run, c)
	t.caret++
	return key{pos: t.caret - 1, ins: string(c)}, true
}

func (t *typist) endRun() {
	if t.onRun != nil && len(t.run) > 0 {
		t.onRun(string(t.run))
	}
	t.run = t.run[:0]
}
