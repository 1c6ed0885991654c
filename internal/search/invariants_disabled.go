//go:build !invariants

package search

// InvariantsEnabled reports whether the build carries the runtime
// invariant assertions (`go test -tags invariants`).
const InvariantsEnabled = false

// assertInvariants is a no-op in regular builds; the call sites inline
// away entirely.
func (in *HitInstance) assertInvariants(string) {}

// auditGains is a no-op in regular builds; the leaf scans inline it
// away entirely.
func auditGains(Instance) {}
