// Package splitmix holds the repository-wide deterministic PRNG step. It
// has no dependencies so any package can draw seeded, reproducible streams
// from it: ring placement, retry jitter, fault-injection decisions and load
// generation all do.
package splitmix

// Next is one splitmix64 step: it advances x by the golden-ratio increment
// and returns the finalised 64-bit mix. Successive calls on a seed walk a
// full-period sequence that depends only on that seed.
func Next(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
