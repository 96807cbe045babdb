package kmerge

import (
	"math/rand"
	"sort"
	"testing"
)

// TestTreeOrder drives the tree with random sorted per-player streams
// (heavy timestamp collisions, some players starting exhausted, k
// spanning non-powers of two) and checks the emission order is exactly
// the (time, player index) sort of every request.
func TestTreeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		k := rng.Intn(20)
		streams := make([][]uint64, k)
		type item struct {
			time   uint64
			player int
		}
		var want []item
		for i := range streams {
			if rng.Intn(4) == 0 {
				continue // starts exhausted
			}
			n := 1 + rng.Intn(8)
			ts := uint64(0)
			for j := 0; j < n; j++ {
				ts += uint64(rng.Intn(3))
				streams[i] = append(streams[i], ts)
				want = append(want, item{ts, i})
			}
		}
		sort.SliceStable(want, func(a, b int) bool {
			if want[a].time != want[b].time {
				return want[a].time < want[b].time
			}
			return want[a].player < want[b].player
		})

		times := make([]uint64, k)
		done := make([]bool, k)
		pos := make([]int, k)
		for i, s := range streams {
			if len(s) == 0 {
				done[i] = true
			} else {
				times[i] = s[0]
			}
		}
		tr := New(times, done)
		var got []item
		for {
			w, ok := tr.Winner()
			if !ok {
				break
			}
			got = append(got, item{streams[w][pos[w]], w})
			if pos[w]++; pos[w] < len(streams[w]) {
				tr.Advance(w, streams[w][pos[w]])
			} else {
				tr.Eliminate(w)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d requests, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: position %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestTreeMaxTimestamp checks a live player whose timestamp equals the
// exhausted-player sentinel still wins over exhausted players.
func TestTreeMaxTimestamp(t *testing.T) {
	tr := New([]uint64{0, ^uint64(0)}, []bool{true, false})
	if w, ok := tr.Winner(); !ok || w != 1 {
		t.Fatalf("Winner() = %d, %v; want 1, true", w, ok)
	}
	tr.Eliminate(1)
	if _, ok := tr.Winner(); ok {
		t.Fatal("Winner() reports a live player after every player is exhausted")
	}
}
