package graph

import "tiermerge/internal/model"

// Scratch holds the transient arrays of the graph phase — a view's posting
// map, an indexed build's bitsets and kept positions, the build's per-item
// layout and edge buffer, the back-out costs' reads-from lists, and the
// cycle pass of the back-out strategies — so that a merge allocates little
// beyond the graph its report keeps.
//
// A Scratch has one owner, which runs one graph phase through it at a time
// (the replication substrate: the merge's home cluster, under its mutex).
// Every use resets what it reads. Nothing a caller keeps points into it: a
// built Graph and a back-out set are allocated fresh, at exact size; only a
// BaseView captured into it borrows its posting map, until the owner's next
// View. Functions taking a *Scratch accept nil and then use a fresh one.
// The zero value is ready to use.
type Scratch struct {
	post     map[model.Item][]postRef // BaseView.post
	postPeak int

	bits bitset  // BuildIndexed's six bitsets over the view
	kept []int32 // BuildIndexed's relevant base positions

	number     map[model.Item]int32 // build: item -> its number
	numberPeak int
	touches    []touch
	count      []int32
	bounds     []int32
	refs       []itemRef
	stamp      []int32
	off        []int32
	flat       []int32
	elided     []int32

	at, readers, seen, stack []int32 // computeCosts

	cyc       cycles
	removed   []bool   // the strategies' removed-vertex mask
	tt        [][2]int // TwoCycle's tentative/tentative two-cycles
	best      []int32  // GreedyDegree's per-component choice
	bestScore []int
}

// slack is the capacity beyond four times the current need up to which a
// buffer that is cleared on reuse (sized, filled, cleared) keeps its array.
// Clearing costs the whole array, a map's its peak size, so one any larger
// is dropped: a small merge does not pay for the largest one the owner has
// seen. A buffer only resliced to length 0 (emptied) costs nothing to
// reuse, and keeps its array.
const slack = 256

// oversized reports whether a buffer of capacity c is far beyond a need of
// n.
func oversized(c, n int) bool { return c > 4*n+slack }

// roomy is the capacity a buffer is (re)allocated with for a need of n:
// a quarter beyond it, so that a need creeping up merge by merge does not
// reallocate every time.
func roomy(n int) int { return n + n/4 }

// sized returns buf as a zeroed slice of length n, reusing its array
// unless it is too small or oversized.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n || oversized(cap(buf), n) {
		return make([]T, n, roomy(n))
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// filled returns buf as a slice of length n holding x, under sized's reuse
// rule.
func filled[T any](buf []T, n int, x T) []T {
	buf = sized(buf, n)
	for i := range buf {
		buf[i] = x
	}
	return buf
}

// emptied returns buf with length 0 and room for at least n elements,
// reusing its array unless it is too small.
func emptied[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, roomy(n))
	}
	return buf[:0]
}

// cleared returns m emptied for about n keys, or a fresh map when m is nil
// or has held far more keys than that: clearing a map costs its peak size.
// peak tracks the most keys m has held.
func cleared[V any](m map[model.Item]V, peak *int, n int) map[model.Item]V {
	if m == nil || oversized(*peak, n) {
		*peak = 0
		return make(map[model.Item]V, n)
	}
	clear(m)
	return m
}

// mask returns the strategies' removed-vertex mask over n vertices, none
// removed.
func (s *Scratch) mask(n int) []bool {
	s.removed = sized(s.removed, n)
	return s.removed
}
