package tuple

// FNV1a exposes the identity hash's definition to the external tests.
func FNV1a(s string) uint64 { return fnv1a(s) }
