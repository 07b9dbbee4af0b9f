package cluster

import "netrecovery/internal/splitmix"

// splitmix64 is the PRNG step the ring ranks vnode candidates with; the
// ring tests recompute ranks through it.
var splitmix64 = splitmix.Next
