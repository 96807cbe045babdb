// Package kmerge holds the one k-way merge every request stream in the
// repository runs on: a loser tree over k players keyed by (exhausted,
// pending time, player index). trace.Merge, synth.Merger and the
// synthesizer's chunked batch merger all select their next request
// through it, so they share one documented tie-break: equal timestamps
// go to the lower player index.
package kmerge

// Tree is a tournament tree merging k players. Selecting the winner is
// a single cached read, and replaying a changed key costs exactly
// ceil(log2 k) comparisons on flat int/uint64 slices, with no interface
// boxing and no virtual calls inside the comparator.
type Tree struct {
	// times holds each live player's pending timestamp; done marks
	// exhausted players, which lose to every live one. An exhausted
	// player's time is pinned to MaxUint64 (see Eliminate) so the common
	// path of beats is a single key comparison; done breaks the rare
	// exact tie against a live MaxUint64 timestamp.
	times []uint64
	done  []bool
	// tree[n] is the loser of the match at internal node n (tree[0] is
	// unused); leafBase is the power-of-two leaf count, with players
	// k..leafBase-1 being permanent byes (index -1).
	tree     []int
	leafBase int
	// winner is the overall champion: the live player with the smallest
	// (time, index) key, or -1 when there are no players at all.
	winner int
}

// New builds the tournament over len(times) players in O(k). times[i]
// is player i's first pending timestamp; players with done[i] set start
// exhausted (they hold a position, and so keep the index tie-break of
// the players after them, but never win). The tree takes ownership of
// both slices.
func New(times []uint64, done []bool) *Tree {
	t := &Tree{times: times, done: done}
	for i, d := range done {
		if d {
			t.times[i] = doneKey
		}
	}
	t.build()
	return t
}

// doneKey is the sentinel timestamp of an exhausted player.
const doneKey = ^uint64(0)

// Winner returns the player holding the globally next request, or
// false once every player is exhausted.
func (t *Tree) Winner() (int, bool) {
	w := t.winner
	return w, w >= 0 && !t.done[w]
}

// Advance records player l's next pending timestamp and replays its
// matches.
func (t *Tree) Advance(l int, time uint64) {
	t.times[l] = time
	t.replay(l)
}

// Eliminate marks player l exhausted and replays its matches.
func (t *Tree) Eliminate(l int) {
	t.done[l] = true
	t.times[l] = doneKey
	t.replay(l)
}

// beats reports whether player a wins (sorts before) player b. Byes (-1)
// and exhausted players lose to everything live; ties on time go to the
// lower index, preserving the insertion-order tie-break. Exhausted
// players carry the doneKey sentinel time, so only an exact tie — two
// exhausted players, or a live timestamp equal to doneKey — has to look
// past the key comparison.
func (t *Tree) beats(a, b int) bool {
	if a < 0 {
		return false
	}
	if b < 0 {
		return true
	}
	if ta, tb := t.times[a], t.times[b]; ta != tb {
		return ta < tb
	}
	if t.done[a] {
		return false
	}
	if t.done[b] {
		return true
	}
	return a < b
}

// build runs the initial tournament in O(k).
func (t *Tree) build() {
	k := len(t.times)
	if k == 0 {
		t.winner = -1
		return
	}
	lb := 1
	for lb < k {
		lb <<= 1
	}
	t.leafBase = lb
	t.tree = make([]int, lb)
	win := make([]int, 2*lb)
	for i := 0; i < lb; i++ {
		if i < k {
			win[lb+i] = i
		} else {
			win[lb+i] = -1
		}
	}
	for n := lb - 1; n >= 1; n-- {
		a, b := win[2*n], win[2*n+1]
		if t.beats(a, b) {
			win[n], t.tree[n] = a, b
		} else {
			win[n], t.tree[n] = b, a
		}
	}
	t.winner = win[1]
}

// replay re-runs the matches on the path from leaf l to the root after
// l's key changed (it advanced or exhausted), updating the champion.
func (t *Tree) replay(l int) {
	w := l
	for n := (t.leafBase + l) >> 1; n >= 1; n >>= 1 {
		if t.beats(t.tree[n], w) {
			w, t.tree[n] = t.tree[n], w
		}
	}
	t.winner = w
}
