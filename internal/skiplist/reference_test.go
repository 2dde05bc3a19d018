package skiplist

import (
	"errors"
	"math/rand"
	"testing"
)

// checked drives a List and the slice-backed refModel through the same
// operations and fails on the first result where they disagree. Every
// search is compared field by field, including the weight prefix sums the
// mediator turns into ciphertext offsets.
type checked struct {
	t   *testing.T
	l   *List[string]
	ref refModel
}

func newChecked(t *testing.T, seed uint64) *checked {
	return &checked{t: t, l: New[string](seed)}
}

// pos is the reference answer for element k at offset off.
func (m *refModel) pos(k, off int) Pos[string] {
	b1, b2 := 0, 0
	for i := 0; i < k; i++ {
		b1 += m.w1s[i]
		b2 += m.w2s[i]
	}
	return Pos[string]{Ordinal: k, Value: m.values[k], W1: m.w1s[k], W2: m.w2s[k],
		BeforeW1: b1, BeforeW2: b2, Offset: off}
}

func (c *checked) insert(k int, v string, w1, w2 int) {
	c.t.Helper()
	if err := c.l.InsertAt(k, v, w1, w2); err != nil {
		c.t.Fatalf("InsertAt(%d): %v", k, err)
	}
	c.ref.insertAt(k, v, w1, w2)
}

func (c *checked) delete(k int) {
	c.t.Helper()
	v, w1, w2, err := c.l.DeleteAt(k)
	if err != nil {
		c.t.Fatalf("DeleteAt(%d): %v", k, err)
	}
	if v != c.ref.values[k] || w1 != c.ref.w1s[k] || w2 != c.ref.w2s[k] {
		c.t.Fatalf("DeleteAt(%d) = (%q,%d,%d), ref (%q,%d,%d)",
			k, v, w1, w2, c.ref.values[k], c.ref.w1s[k], c.ref.w2s[k])
	}
	c.ref.deleteAt(k)
}

func (c *checked) set(k int, v string, w1, w2 int) {
	c.t.Helper()
	if err := c.l.SetAt(k, v, w1, w2); err != nil {
		c.t.Fatalf("SetAt(%d): %v", k, err)
	}
	c.ref.setAt(k, v, w1, w2)
}

// seekPrimary checks FindPrimary(p); p may be out of range, in which case
// the list must report ErrIndexRange.
func (c *checked) seekPrimary(p int) {
	c.t.Helper()
	got, err := c.l.FindPrimary(p)
	if p < 0 || p >= c.ref.totalW1() {
		if !errors.Is(err, ErrIndexRange) {
			c.t.Fatalf("FindPrimary(%d) out of range = %v, want ErrIndexRange", p, err)
		}
		return
	}
	if err != nil {
		c.t.Fatalf("FindPrimary(%d): %v", p, err)
	}
	ord, off, _, _ := c.ref.findPrimary(p)
	if want := c.ref.pos(ord, off); got != want {
		c.t.Fatalf("FindPrimary(%d) = %+v, ref %+v", p, got, want)
	}
}

// seekOrdinal checks FindOrdinal(k); k may be out of range.
func (c *checked) seekOrdinal(k int) {
	c.t.Helper()
	got, err := c.l.FindOrdinal(k)
	if k < 0 || k >= len(c.ref.values) {
		if !errors.Is(err, ErrIndexRange) {
			c.t.Fatalf("FindOrdinal(%d) out of range = %v, want ErrIndexRange", k, err)
		}
		return
	}
	if err != nil {
		c.t.Fatalf("FindOrdinal(%d): %v", k, err)
	}
	if want := c.ref.pos(k, 0); got != want {
		c.t.Fatalf("FindOrdinal(%d) = %+v, ref %+v", k, got, want)
	}
}

func (c *checked) validate() {
	c.t.Helper()
	if err := c.l.Validate(); err != nil {
		c.t.Fatal(err)
	}
	if c.l.Len() != len(c.ref.values) || c.l.TotalPrimary() != c.ref.totalW1() {
		c.t.Fatalf("list (len %d, W1 %d), ref (len %d, W1 %d)",
			c.l.Len(), c.l.TotalPrimary(), len(c.ref.values), c.ref.totalW1())
	}
}

// TestSequentialSeeksMatchReference scans every primary position left to
// right and then right to left — the access pattern of sequential editing —
// and checks each Algorithm 1 descent against the reference.
func TestSequentialSeeksMatchReference(t *testing.T) {
	c := newChecked(t, 7)
	for i := 0; i < 300; i++ {
		c.insert(i, itoa(i), 1+i%8, 52)
	}
	total := c.l.TotalPrimary()
	for p := 0; p < total; p++ {
		c.seekPrimary(p)
	}
	for p := total - 1; p >= 0; p-- {
		c.seekPrimary(p)
	}
	c.validate()
}

// TestMutationsAroundSeekMatchReference mutates just before, at, and just
// after a freshly sought element, then seeks around it again: the spans a
// mutation rewrites border exactly these positions.
func TestMutationsAroundSeekMatchReference(t *testing.T) {
	for _, mutate := range []string{"insert-before", "insert-at", "insert-after",
		"delete-before", "delete-at", "delete-after",
		"set-before", "set-at", "set-after"} {
		c := newChecked(t, 11)
		for i := 0; i < 64; i++ {
			c.insert(i, itoa(i), 4, 52)
		}
		c.seekPrimary(130) // element 32 holds primary 128..131
		switch mutate {
		case "insert-before":
			c.insert(10, "x", 3, 52)
		case "insert-at":
			c.insert(32, "x", 3, 52)
		case "insert-after":
			c.insert(40, "x", 3, 52)
		case "delete-before":
			c.delete(10)
		case "delete-at":
			c.delete(32)
		case "delete-after":
			c.delete(40)
		case "set-before":
			c.set(10, "x", 7, 52)
		case "set-at":
			c.set(32, "x", 7, 52)
		case "set-after":
			c.set(40, "x", 7, 52)
		}
		total := c.l.TotalPrimary()
		for _, p := range []int{0, 125, 128, 130, 131, 140, total - 1, total} {
			c.seekPrimary(p)
		}
		c.validate()
	}
}

// applyTape decodes an op tape — one (op, arg) byte pair per operation —
// into InsertAt/DeleteAt/SetAt/FindPrimary/FindOrdinal calls. Weights
// include zero (metadata-like blocks), and seeks occasionally land one past
// the end to exercise the range checks.
func (c *checked) applyTape(tape []byte) {
	c.t.Helper()
	for i := 0; i+1 < len(tape); i += 2 {
		op, arg := tape[i]%5, int(tape[i+1])
		n := c.l.Len()
		w1, w2 := arg%8, (arg/8)%3*26
		switch op {
		case 0:
			c.insert(arg%(n+1), itoa(i), w1, w2)
		case 1:
			if n > 0 {
				c.delete(arg % n)
			}
		case 2:
			if n > 0 {
				c.set(arg%n, itoa(i), w1, w2)
			}
		case 3:
			c.seekOrdinal(arg % (n + 1))
		default:
			c.seekPrimary(arg % (c.l.TotalPrimary() + 1))
		}
	}
	c.validate()
}

// TestInterleavedOpsMatchReference runs a long random tape, biased toward
// inserts so the list grows, with every seek checked as it happens.
func TestInterleavedOpsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2011))
	tape := make([]byte, 40_000)
	for i := 0; i < len(tape); i += 2 {
		op := byte(rng.Intn(8))
		if op >= 5 {
			op = 0
		}
		tape[i], tape[i+1] = op, byte(rng.Intn(256))
	}
	newChecked(t, 13).applyTape(tape)
}

// FuzzListMatchesReference drives the list and the reference model from a
// fuzz-provided op tape; the fuzzer explores interleavings of mutations and
// seeks that the random test may miss.
func FuzzListMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 4, 0, 0, 1, 4, 1, 2, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 4, 3, 3, 1, 4, 0, 1, 1})
	f.Add([]byte{0, 8, 0, 9, 0, 0, 4, 0, 4, 1, 2, 0, 4, 9, 3, 2})
	f.Fuzz(func(t *testing.T, tape []byte) {
		newChecked(t, 17).applyTape(tape)
	})
}
