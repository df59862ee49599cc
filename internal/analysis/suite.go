package analysis

import "strings"

// This file is the nocvet policy: which contracts apply where. The driver
// (cmd/nocvet) and the tests share it so the shipped configuration is
// itself under test.

// NocHotPathRoots are the simulator entry points whose transitive (static,
// intra-package) callees must stay allocation-free and take no large struct
// by value: the per-cycle pipeline, the injection path, and the arena reset
// the campaign engine calls once per grid point. The router phase functions
// and the NI inject/receive paths are reached from these, so they are
// covered without being named.
var NocHotPathRoots = []string{
	"Network.Step",
	"Network.Inject",
	"Network.Run",
	"Network.Reset",
}

// FlitHotPathRoots are the flit codec calls the router pipeline, the NI and
// the wires make per flit or per injected packet. The package is checked
// for large copies only (hotcopy): AppendFlits appends into the caller's
// pre-sized scratch by design.
var FlitHotPathRoots = []string{
	"Packet.AppendFlits",
	"Flit.Header",
	"Layout.Decode",
	"Layout.VC",
	"Layout.SrcR",
	"Layout.DstR",
}

// TrafficHotPathRoots are the allocation-free generator calls the runner
// makes every cycle (TickInto) and per generated packet (PacketInto),
// checked for large copies (hotcopy). Tick and Packet allocate by design
// and stay off the measured path.
var TrafficHotPathRoots = []string{
	"Generator.TickInto",
	"Generator.PacketInto",
}

// NocProtectedFields is the scheduler state of the event-driven core
// (DESIGN.md §9): the activity bitmaps and flit counters plus the
// occupancy/request masks the arbitration scans trust. Every transition
// must go through the sched.go edge helpers the invariant audit certifies.
var NocProtectedFields = []ProtectedField{
	{Type: "Router", Field: "occ"},
	{Type: "Router", Field: "routedTo"},
	{Type: "Router", Field: "reqVA"},
	{Type: "Router", Field: "inFlits"},
	{Type: "Router", Field: "parked"},
	{Type: "NI", Field: "total"},
	{Type: "scheduler", Field: "actIn"},
	{Type: "scheduler", Field: "actOut"},
	{Type: "scheduler", Field: "actNI"},
	{Type: "scheduler", Field: "flitsIn"},
	{Type: "scheduler", Field: "flitsParked"},
	{Type: "scheduler", Field: "flitsNI"},
	{Type: "activeSet", Field: "w"},
	{Type: "Network", Field: "sleepUntil"},
}

// NocSchedFiles are the files allowed to mutate NocProtectedFields.
var NocSchedFiles = []string{"sched.go"}

// CampaignHotPathRoots are the campaign engine's per-point entry points:
// the worker loop body and the record fill/encode pair it calls once per
// grid point. Statically reachable callees (Scenario.Config and the
// AttackSpec/JSONL helpers) are covered without being named. Amortized
// appends into recycled storage are annotated at their declarations; the
// dynamic complement to this static gate is BenchmarkCampaignPoint's
// 0 allocs/op contract.
var CampaignHotPathRoots = []string{
	"worker",
	"Record.Fill",
	"Record.AppendJSONL",
}

// CampaignWriterFields is the in-order writer's shared bookkeeping: the
// commit cursor, checkpoint counters and the reorder buffer. Workers only
// ever hand the writer immutable encoded records over a channel; every
// mutation of this state belongs in writer.go, where the commit/checkpoint
// pair keeps the sidecar consistent with the bytes on disk.
var CampaignWriterFields = []ProtectedField{
	{Type: "writer", Field: "next"},
	{Type: "writer", Field: "written"},
	{Type: "writer", Field: "offset"},
	{Type: "writer", Field: "dirty"},
	{Type: "writer", Field: "pending"},
}

// CampaignWriterFiles are the files allowed to mutate CampaignWriterFields.
// run.go constructs the writer but only reads its cursors afterwards.
var CampaignWriterFiles = []string{"writer.go"}

// DetectHotPathRoots are the runtime detectors' per-sample entry points.
// The secure-ack monitor is fed once per link at every telemetry sample
// inside the campaign worker loop (Observe, then one FinishWindow per
// sample), so they and the arena-reuse Reset must stay allocation-free
// like the simulator phases that feed them.
var DetectHotPathRoots = []string{
	"AckMonitor.Observe",
	"AckMonitor.FinishWindow",
	"AckMonitor.Reset",
	"AckMonitor.Class",
	"AckMonitor.Channel",
	"AckMonitor.Deficit",
	"AckMonitor.Flagged",
}

// DetectMonitorFields is the secure-ack monitor's windowed state: verdicts
// escalate monotonically (a conviction latches), the cumulative deficit
// and fused counters only grow, and the per-link/fused streaks only move
// through window boundaries — which only holds if every transition goes
// through Observe/FinishWindow/Reset in ack.go.
var DetectMonitorFields = []ProtectedField{
	{Type: "AckMonitor", Field: "prevGap"},
	{Type: "AckMonitor", Field: "prevViol"},
	{Type: "AckMonitor", Field: "streak"},
	{Type: "AckMonitor", Field: "class"},
	{Type: "AckMonitor", Field: "channel"},
	{Type: "AckMonitor", Field: "deficit"},
	{Type: "AckMonitor", Field: "sent"},
	{Type: "AckMonitor", Field: "windowGrowth"},
	{Type: "AckMonitor", Field: "fusedStreak"},
}

// DetectMonitorFiles are the files allowed to mutate DetectMonitorFields.
var DetectMonitorFiles = []string{"ack.go"}

// LocateHotPathRoots is the localization engine's per-sample entry point:
// RankWeighted runs at every telemetry sample of a locate-enabled run (the
// SuspectTrace series), over every link. Its two deliberate allocations —
// amortized scratch growth and the caller-retained result copy — are
// annotated at their sites.
var LocateHotPathRoots = []string{
	"Engine.RankWeighted",
}

// simPackage reports whether an import path is simulation code bound by
// the determinism contracts. Everything in this module feeds the golden
// files or the seed-determinism tests except the analysis tooling itself —
// which is still included: nocvet's own output must be deterministic too.
func simPackage(path string) bool {
	return path == "tasp" || strings.HasPrefix(path, "tasp/")
}

// SuiteFor returns the analyzers nocvet runs on one package.
func SuiteFor(importPath string) []*Analyzer {
	if !simPackage(importPath) {
		return nil
	}
	suite := []*Analyzer{NewDetRange(), NewDetSource()}
	switch importPath {
	case "tasp/internal/noc":
		suite = append(suite,
			NewHotAlloc(NocHotPathRoots),
			NewHotCopy(NocHotPathRoots),
			NewTelemetrySafe(NocProtectedFields, NocSchedFiles),
		)
	case "tasp/internal/flit":
		suite = append(suite, NewHotCopy(FlitHotPathRoots))
	case "tasp/internal/traffic":
		suite = append(suite, NewHotCopy(TrafficHotPathRoots))
	case "tasp/internal/campaign":
		suite = append(suite,
			NewHotAlloc(CampaignHotPathRoots),
			NewTelemetrySafe(CampaignWriterFields, CampaignWriterFiles),
		)
	case "tasp/internal/detect":
		suite = append(suite,
			NewHotAlloc(DetectHotPathRoots),
			NewTelemetrySafe(DetectMonitorFields, DetectMonitorFiles),
		)
	case "tasp/internal/locate":
		suite = append(suite,
			NewHotAlloc(LocateHotPathRoots),
		)
	}
	return suite
}
