package core

import "tasp/internal/noc"

// SetAudit installs a Runner's per-cycle audit hook for the external tests.
func SetAudit(r *Runner, fn func(*noc.Network) error) { r.audit = fn }

// Summarize renders every observable field of a Results (runner_test.go).
var Summarize = summarize

// FlowMatcher and LinkLoadsOracle give the external placement tests the
// attacker's flow filter and the old analytic loads (placement_test.go).
var (
	FlowMatcher     = flowMatcher
	LinkLoadsOracle = linkLoadsOracle
)
