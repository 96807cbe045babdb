package synth

import (
	"fmt"
	"testing"

	"repro/internal/profile"
)

func countsProfile(counts ...uint32) *profile.Profile {
	p := &profile.Profile{}
	for _, c := range counts {
		p.Leaves = append(p.Leaves, profile.Leaf{Count: c})
	}
	return p
}

// TestShardBounds pins the shard split: at most w contiguous ranges that
// cover every leaf, none without requests, balanced by request count
// plus the per-leaf cost.
func TestShardBounds(t *testing.T) {
	cases := []struct {
		counts []uint32
		w      int
		want   []int
	}{
		{[]uint32{10, 10, 10, 10}, 1, []int{0, 4}},
		{[]uint32{10, 10, 10, 10}, 2, []int{0, 2, 4}},
		{[]uint32{10, 10, 10, 10}, 4, []int{0, 1, 2, 3, 4}},
		{[]uint32{10, 10, 10, 10}, 9, []int{0, 1, 2, 3, 4}},
		// One dominant leaf takes a range of its own, before or after.
		{[]uint32{1000, 1, 1}, 3, []int{0, 1, 2, 3}},
		{[]uint32{1, 1, 1000}, 3, []int{0, 2, 3}},
		// Empty leaves never start a range and cost nothing.
		{[]uint32{0, 0, 10, 0, 10, 0}, 2, []int{0, 4, 6}},
		{[]uint32{0, 0, 0}, 4, []int{0, 3}},
		{nil, 4, []int{0, 0}},
	}
	for _, c := range cases {
		got, _, _ := shardBounds(countsProfile(c.counts...), c.w, DefaultBatch)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("shardBounds(%v, w=%d) = %v, want %v", c.counts, c.w, got, c.want)
		}
	}
}

func TestShardBoundsLeafCounts(t *testing.T) {
	_, leaves, eager := shardBounds(countsProfile(0, 3, 300, 256, 257, 0), 2, 256)
	if leaves != 4 || eager != 2 {
		t.Fatalf("leaves=%d eager=%d, want 4 and 2", leaves, eager)
	}
}
