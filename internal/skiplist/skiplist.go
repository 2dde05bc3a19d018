// Package skiplist implements the IndexedSkipList of Huang & Evans §V-C:
// a skip list whose forward pointers carry skip counts so that elements can
// be found, inserted, and deleted *by position* rather than by key, in
// expected O(log n) time (Algorithm 1 and Figure 3 of the paper).
//
// This implementation generalizes the paper's single skip_count to three
// parallel counts per pointer:
//
//   - element count (how many list elements a pointer skips),
//   - primary weight (plaintext characters held by the skipped elements),
//   - secondary weight (ciphertext units produced by the skipped elements).
//
// The dual weighting is what lets the mediating extension translate a
// plaintext character position into the corresponding ciphertext offset in
// a single traversal, which §V-B's transform_delta needs to emit ciphertext
// deltas without scanning the document.
package skiplist

import (
	"errors"
	"fmt"
	"strings"

	"privedit/internal/obs"
)

// metricSeekSteps records how many forward-pointer hops a positional seek
// takes — the observable form of the paper's expected-O(log n) claim for
// Algorithm 1. Shared by all lists in the process; a no-op until
// obs.Enable().
var metricSeekSteps = obs.NewHistogram("privedit_skiplist_seek_steps",
	"Forward-pointer hops per FindPrimary positional seek.",
	obs.ExpBuckets(1, 2, 10))

// MaxLevel bounds the tower height. 2^32 elements is far beyond the 500 KB
// document limit the Google Documents service enforced.
const MaxLevel = 32

// ErrIndexRange reports an out-of-range ordinal or weight index.
var ErrIndexRange = errors.New("skiplist: index out of range")

// towerLink is one level of a node's tower: the forward pointer together
// with the aggregate over the elements in (this, to] — everything the
// pointer skips including its destination. Keeping the pointer and its
// three counts in one struct slice (instead of four parallel slices) means
// one allocation per node and one cache line per level on the descent.
type towerLink[V any] struct {
	to    *node[V]
	elems int
	w1    int
	w2    int
}

type node[V any] struct {
	value V
	w1    int // primary weight (plaintext characters)
	w2    int // secondary weight (ciphertext units)

	tower []towerLink[V]
}

// List is an indexed skip list. The zero value is not usable; construct
// with New. A List is not safe for concurrent use; the document model
// serializes access.
type List[V any] struct {
	head   *node[V]
	level  int // highest level in use, >= 1
	length int
	sumW1  int
	sumW2  int
	rng    uint64 // SplitMix64 state for tower heights

	// sp is the reusable pathTo scratch (see searchPath).
	sp searchPath[V]
}

// New returns an empty list. Tower heights are drawn from a deterministic
// generator seeded with seed, making structure (and therefore benchmarks)
// reproducible; the seed has no security role.
func New[V any](seed uint64) *List[V] {
	return &List[V]{
		head:  &node[V]{tower: make([]towerLink[V], MaxLevel)},
		level: 1,
		rng:   seed ^ 0x9e3779b97f4a7c15,
	}
}

// Len returns the number of elements.
func (l *List[V]) Len() int { return l.length }

// TotalPrimary returns the sum of primary weights (total plaintext chars).
func (l *List[V]) TotalPrimary() int { return l.sumW1 }

// TotalSecondary returns the sum of secondary weights (total cipher units).
func (l *List[V]) TotalSecondary() int { return l.sumW2 }

func (l *List[V]) randomLevel() int {
	// SplitMix64 step; one draw gives 64 coin flips, plenty for p = 1/2.
	l.rng += 0x9e3779b97f4a7c15
	z := l.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	level := 1
	for z&1 == 1 && level < MaxLevel {
		level++
		z >>= 1
	}
	return level
}

// Pos describes an element located by a search.
type Pos[V any] struct {
	Ordinal int // element index, 0-based
	Value   V
	W1      int // the element's primary weight
	W2      int // the element's secondary weight

	// Prefix sums over all elements strictly before this one.
	BeforeW1 int
	BeforeW2 int

	// Offset of the searched primary index within the element
	// (only meaningful for FindPrimary).
	Offset int
}

// FindPrimary locates the element containing primary index p
// (0 <= p < TotalPrimary). This is Algorithm 1 of the paper, with the
// prefix sums of both weight dimensions accumulated along the way.
func (l *List[V]) FindPrimary(p int) (Pos[V], error) {
	if p < 0 || p >= l.sumW1 {
		return Pos[V]{}, fmt.Errorf("%w: primary index %d, total %d", ErrIndexRange, p, l.sumW1)
	}
	x := l.head
	rem := p
	ordinal, beforeW1, beforeW2 := 0, 0, 0
	steps := 0
	for i := l.level - 1; i >= 0; i-- {
		for {
			lnk := &x.tower[i]
			if lnk.to == nil || rem < lnk.w1 {
				break
			}
			rem -= lnk.w1
			beforeW1 += lnk.w1
			beforeW2 += lnk.w2
			ordinal += lnk.elems
			x = lnk.to
			steps++
		}
	}
	metricSeekSteps.Observe(float64(steps))
	target := x.tower[0].to
	if target == nil {
		// Unreachable while invariants hold (p < sumW1 guarantees a
		// containing element); guard against corruption anyway.
		return Pos[V]{}, fmt.Errorf("%w: primary index %d fell off the list", ErrIndexRange, p)
	}
	return Pos[V]{
		Ordinal:  ordinal,
		Value:    target.value,
		W1:       target.w1,
		W2:       target.w2,
		BeforeW1: beforeW1,
		BeforeW2: beforeW2,
		Offset:   rem,
	}, nil
}

// FindOrdinal locates the k-th element (0-based).
func (l *List[V]) FindOrdinal(k int) (Pos[V], error) {
	if k < 0 || k >= l.length {
		return Pos[V]{}, fmt.Errorf("%w: ordinal %d, length %d", ErrIndexRange, k, l.length)
	}
	x := l.head
	rem := k
	beforeW1, beforeW2 := 0, 0
	for i := l.level - 1; i >= 0; i-- {
		for {
			lnk := &x.tower[i]
			if lnk.to == nil || rem < lnk.elems {
				break
			}
			rem -= lnk.elems
			beforeW1 += lnk.w1
			beforeW2 += lnk.w2
			x = lnk.to
		}
	}
	target := x.tower[0].to
	if target == nil {
		return Pos[V]{}, fmt.Errorf("%w: ordinal %d fell off the list", ErrIndexRange, k)
	}
	return Pos[V]{
		Ordinal:  k,
		Value:    target.value,
		W1:       target.w1,
		W2:       target.w2,
		BeforeW1: beforeW1,
		BeforeW2: beforeW2,
	}, nil
}

// searchPath captures the descent toward element ordinal k: for each level,
// the last node strictly before ordinal k, its element rank, and the prefix
// weight sums accumulated when leaving that level. bottomW1/bottomW2 are the
// weight sums of all elements strictly before ordinal k. The arrays are
// inline so a List can keep one reusable instance (a List is single-threaded
// by contract) and pathTo allocates nothing.
type searchPath[V any] struct {
	update             [MaxLevel]*node[V]
	ranks              [MaxLevel]int
	prefW1, prefW2     [MaxLevel]int
	bottomW1, bottomW2 int
}

// pathTo computes the search path toward element ordinal k (so inserting
// after update[0] places a node at ordinal k). The returned path is the
// list's reusable scratch: it is valid only until the next pathTo call.
func (l *List[V]) pathTo(k int) *searchPath[V] {
	p := &l.sp
	x := l.head
	rank, aw1, aw2 := 0, 0, 0
	for i := l.level - 1; i >= 0; i-- {
		for {
			lnk := &x.tower[i]
			if lnk.to == nil || rank+lnk.elems > k {
				break
			}
			rank += lnk.elems
			aw1 += lnk.w1
			aw2 += lnk.w2
			x = lnk.to
		}
		p.update[i] = x
		p.ranks[i] = rank
		p.prefW1[i] = aw1
		p.prefW2[i] = aw2
	}
	for i := l.level; i < MaxLevel; i++ {
		p.update[i] = l.head
	}
	p.bottomW1, p.bottomW2 = aw1, aw2
	return p
}

// InsertAt inserts value with the given weights so that it becomes element
// ordinal k (0 <= k <= Len()). Expected O(log n).
func (l *List[V]) InsertAt(k int, value V, w1, w2 int) error {
	if k < 0 || k > l.length {
		return fmt.Errorf("%w: insert ordinal %d, length %d", ErrIndexRange, k, l.length)
	}
	if w1 < 0 || w2 < 0 {
		return fmt.Errorf("%w: negative weight (%d, %d)", ErrIndexRange, w1, w2)
	}
	p := l.pathTo(k)

	h := l.randomLevel()
	if h > l.level {
		l.level = h
	}
	z := &node[V]{
		value: value,
		w1:    w1,
		w2:    w2,
		tower: make([]towerLink[V], h),
	}

	for i := 0; i < h; i++ {
		up := p.update[i]
		// Elements and weights strictly between update[i] and the new node:
		// the bottom prefix minus the prefix where the descent left level i.
		between := k - p.ranks[i]
		bw1 := p.bottomW1 - p.prefW1[i]
		bw2 := p.bottomW2 - p.prefW2[i]

		upl := &up.tower[i]
		old := upl.to
		z.tower[i].to = old
		upl.to = z
		if old != nil {
			z.tower[i].elems = upl.elems - between
			z.tower[i].w1 = upl.w1 - bw1
			z.tower[i].w2 = upl.w2 - bw2
		}
		upl.elems = between + 1
		upl.w1 = bw1 + w1
		upl.w2 = bw2 + w2
	}
	for i := h; i < l.level; i++ {
		if upl := &p.update[i].tower[i]; upl.to != nil {
			upl.elems++
			upl.w1 += w1
			upl.w2 += w2
		}
	}

	l.length++
	l.sumW1 += w1
	l.sumW2 += w2
	return nil
}

// DeleteAt removes element ordinal k and returns its value and weights.
func (l *List[V]) DeleteAt(k int) (value V, w1, w2 int, err error) {
	if k < 0 || k >= l.length {
		var zero V
		return zero, 0, 0, fmt.Errorf("%w: delete ordinal %d, length %d", ErrIndexRange, k, l.length)
	}
	p := l.pathTo(k)
	target := p.update[0].tower[0].to
	for i := 0; i < l.level; i++ {
		upl := &p.update[i].tower[i]
		if upl.to == target {
			tl := &target.tower[i]
			upl.elems += tl.elems - 1
			upl.w1 += tl.w1 - target.w1
			upl.w2 += tl.w2 - target.w2
			upl.to = tl.to
		} else if upl.to != nil {
			upl.elems--
			upl.w1 -= target.w1
			upl.w2 -= target.w2
		}
	}
	for l.level > 1 && l.head.tower[l.level-1].to == nil {
		l.level--
	}
	l.length--
	l.sumW1 -= target.w1
	l.sumW2 -= target.w2
	return target.value, target.w1, target.w2, nil
}

// SetAt replaces the value and weights of element ordinal k, updating every
// span that covers it. Expected O(log n).
func (l *List[V]) SetAt(k int, value V, w1, w2 int) error {
	if k < 0 || k >= l.length {
		return fmt.Errorf("%w: set ordinal %d, length %d", ErrIndexRange, k, l.length)
	}
	if w1 < 0 || w2 < 0 {
		return fmt.Errorf("%w: negative weight (%d, %d)", ErrIndexRange, w1, w2)
	}
	p := l.pathTo(k)
	target := p.update[0].tower[0].to
	d1 := w1 - target.w1
	d2 := w2 - target.w2
	for i := 0; i < l.level; i++ {
		if upl := &p.update[i].tower[i]; upl.to != nil {
			// The span (update[i], to] always contains ordinal k:
			// update[i] sits strictly before it, its target at or after it.
			upl.w1 += d1
			upl.w2 += d2
		}
	}
	target.value = value
	target.w1 = w1
	target.w2 = w2
	l.sumW1 += d1
	l.sumW2 += d2
	return nil
}

// Each calls fn for every element starting at ordinal from, in order, until
// fn returns false or the list is exhausted. The walk is O(len) from the
// located start.
func (l *List[V]) Each(from int, fn func(ordinal int, value V, w1, w2 int) bool) error {
	if from < 0 || from > l.length {
		return fmt.Errorf("%w: each from %d, length %d", ErrIndexRange, from, l.length)
	}
	x := l.pathTo(from).update[0].tower[0].to
	for k := from; x != nil; k++ {
		if !fn(k, x.value, x.w1, x.w2) {
			break
		}
		x = x.tower[0].to
	}
	return nil
}

// Validate checks every structural invariant: span sums at every level must
// agree with the bottom-level truth, totals must match, and forward chains
// must be properly nested. Used by property tests; O(n · level).
func (l *List[V]) Validate() error {
	// Bottom-level truth: ordered nodes with their weights.
	var nodes []*node[V]
	for x := l.head.tower[0].to; x != nil; x = x.tower[0].to {
		nodes = append(nodes, x)
	}
	if len(nodes) != l.length {
		return fmt.Errorf("skiplist: length %d, bottom walk found %d", l.length, len(nodes))
	}
	sum1, sum2 := 0, 0
	index := make(map[*node[V]]int, len(nodes))
	for i, n := range nodes {
		sum1 += n.w1
		sum2 += n.w2
		index[n] = i
	}
	if sum1 != l.sumW1 || sum2 != l.sumW2 {
		return fmt.Errorf("skiplist: totals (%d,%d), walk found (%d,%d)", l.sumW1, l.sumW2, sum1, sum2)
	}
	for lev := 0; lev < l.level; lev++ {
		x := l.head
		at := -1 // ordinal of x; head = -1
		for x.tower[lev].to != nil {
			y := x.tower[lev].to
			j, ok := index[y]
			if !ok {
				return fmt.Errorf("skiplist: level %d points to unknown node", lev)
			}
			if j <= at {
				return fmt.Errorf("skiplist: level %d not ascending (%d -> %d)", lev, at, j)
			}
			wantElems := j - at
			want1, want2 := 0, 0
			for t := at + 1; t <= j; t++ {
				want1 += nodes[t].w1
				want2 += nodes[t].w2
			}
			if lnk := x.tower[lev]; lnk.elems != wantElems || lnk.w1 != want1 || lnk.w2 != want2 {
				return fmt.Errorf("skiplist: level %d span at ordinal %d = (%d,%d,%d), want (%d,%d,%d)",
					lev, at, lnk.elems, lnk.w1, lnk.w2, wantElems, want1, want2)
			}
			x = y
			at = j
		}
	}
	return nil
}

// String renders the tower structure for debugging, in the spirit of the
// paper's Figure 3.
func (l *List[V]) String() string {
	var b strings.Builder
	for i := l.level - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "L%-2d head", i)
		for x := l.head; x != nil && x.tower[i].to != nil; x = x.tower[i].to {
			fmt.Fprintf(&b, " -(%d,%d,%d)-> %v", x.tower[i].elems, x.tower[i].w1, x.tower[i].w2, x.tower[i].to.value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
