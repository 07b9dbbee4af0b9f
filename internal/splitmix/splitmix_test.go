package splitmix

import "testing"

// TestNextReferenceValues pins the first outputs of the seed-0 splitmix64
// stream (the published reference sequence), so a change to the constants
// cannot silently move every seeded placement and jitter in the tree.
func TestNextReferenceValues(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var state uint64
	for i, w := range want {
		if got := Next(state); got != w {
			t.Fatalf("output %d = %#x, want %#x", i, got, w)
		}
		state += 0x9e3779b97f4a7c15
	}
}
