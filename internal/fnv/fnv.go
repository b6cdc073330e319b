// Package fnv provides the FNV-1a hashing primitives shared by the
// performance-engineered paths: the turbo classifier's refinement keys, the
// election service's shard placement and the fleet's key placement all
// hash through these constants, so the magic numbers exist exactly once.
//
// FNV-1a is used for speed and statistical quality, not security: every user
// either verifies full keys after a hash match (the classifier's refine
// table) or only spreads keys with it (placement).
package fnv

// The 64-bit FNV-1a parameters.
const (
	Offset64 = 14695981039346656037
	Prime64  = 1099511628211
)

// Mix64 folds one 64-bit word into a running FNV-1a hash, 32 bits at a
// time (matching the byte-free integer hashing of the turbo classifier).
func Mix64(h, x uint64) uint64 {
	h = (h ^ (x & 0xffffffff)) * Prime64
	h = (h ^ (x >> 32)) * Prime64
	return h
}

// String64 returns the FNV-1a hash of s, allocation-free.
func String64(s string) uint64 {
	h := uint64(Offset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * Prime64
	}
	return h
}
