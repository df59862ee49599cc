package core

import "tasp/internal/noc"

// SetAudit installs a Runner's per-cycle audit hook for the external tests.
func SetAudit(r *Runner, fn func(*noc.Network) error) { r.audit = fn }

// Summarize renders every observable field of a Results (runner_test.go).
var Summarize = summarize

// TargetFlows, FlowMatcherOracle and LinkLoadsOracle give the external
// placement tests the attacker's flow selectors, the flow filter they
// replaced and the old analytic loads (placement_test.go).
var (
	TargetFlows       = targetFlows
	FlowMatcherOracle = flowMatcherOracle
	LinkLoadsOracle   = linkLoadsOracle
)
