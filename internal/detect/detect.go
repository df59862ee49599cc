// Package detect implements the paper's heuristic threat source detector
// (Section IV-B, Figure 6). One detector guards each link's receiving side.
// When ECC flags a fault it records the faulting flit, keyed by packet and
// flit index, in a fault-history table; the decision flow is the paper's:
//
//   - fault not seen before          -> correct / signal retransmission
//   - same flit faulted before       -> notify BIST (repeated transients are
//     unlikely)
//   - clean arrival of an obfuscated flit -> retire the flit's record (the
//     link undoes the method, charging its stall, and logs it for the flow)
//
// Out of these observations the detector classifies the link: Transient
// (isolated, non-repeating faults), Permanent (BIST found stuck wires) or
// HardwareTrojan (repeating faults on targeted flits that stop under
// obfuscation while BIST finds nothing). Which obfuscation each retry uses
// — enabling L-Ob on a repeat, escalating it on the next — is the link's
// attempt schedule (core.SecureWire), not a detector output.
package detect

import (
	"fmt"

	"tasp/internal/bist"
	"tasp/internal/lob"
)

// Classification is the detector's verdict about a link.
type Classification uint8

// Link verdicts.
const (
	Healthy   Classification = iota // no faults observed
	Transient                       // isolated faults, none repeating
	Permanent                       // BIST found stuck wires
	Trojan                          // targeted faults defeated by obfuscation
	Suspect                         // repeating faults, cause not yet proven
)

// String names the classification.
func (c Classification) String() string {
	switch c {
	case Healthy:
		return "healthy"
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case Trojan:
		return "trojan"
	case Suspect:
		return "suspect"
	default:
		return fmt.Sprintf("classification(%d)", uint8(c))
	}
}

// FlitKey identifies one flit for the fault-history table.
type FlitKey struct {
	PacketID uint64
	Index    uint8
}

// record is one fault-history entry.
type record struct {
	key    FlitKey
	faults int
}

// Detector is the per-link threat source detector.
type Detector struct {
	// historyCap bounds the fault-history table (the hardware table in the
	// power model holds 4 entries; the functional model defaults larger so
	// software analyses aren't table-limited).
	historyCap int
	// history is the fault-history table, oldest record first. It holds at
	// most historyCap records, so a lookup scans it. Its array is allocated
	// at the first fault and kept across Reset.
	history []record

	bistDone   bool
	bistReport bist.Report

	// Granularity evidence for trigger localisation: success/failure per
	// granularity of obfuscation attempts.
	granOK, granFail [lob.PayloadOnly + 1]int

	class Classification
}

// DefaultHistoryCap is the default fault-history table size.
const DefaultHistoryCap = 64

// New returns a detector with the given history capacity (0 = default).
func New(historyCap int) *Detector {
	if historyCap <= 0 {
		historyCap = DefaultHistoryCap
	}
	return &Detector{historyCap: historyCap}
}

// OnFault implements the left half of Figure 6: an uncorrectable decode
// arrived. obf is the obfuscation that was applied to this attempt (None
// for plain traversals). It reports whether to scan the link with BIST
// before the next retransmission: on a repeated fault, until a scan has
// run.
func (d *Detector) OnFault(key FlitKey, obf lob.Choice) bool {
	// The first observation can already be obfuscated (attempt 0 replays
	// the flow's logged method, and a sustained attack can evict a flit's
	// record between its retries); that evidence feeds TriggerScope and
	// must not be lost.
	if obf.Method != lob.None {
		d.granFail[obf.Gran]++
	}
	if i := d.find(key); i >= 0 {
		// Seen before: repeated transients are unlikely — involve BIST.
		d.history[i].faults++
		if d.class == Healthy || d.class == Transient {
			d.class = Suspect
		}
		return !d.bistDone
	}
	// "Has this flit or fault been seen before?" — no: record it and
	// signal retransmission. A full table evicts its oldest record by
	// copying the survivors down, so its array never grows.
	if d.history == nil {
		d.history = make([]record, 0, d.historyCap)
	}
	if len(d.history) >= d.historyCap {
		d.history = d.history[:copy(d.history, d.history[1:])]
	}
	d.history = append(d.history, record{key: key, faults: 1})
	if d.class == Healthy {
		d.class = Transient
	}
	return false
}

// OnClean implements the right half of Figure 6: a flit arrived without
// faults. If it was obfuscated, the undo stall has already been charged by
// the wire; here the detector updates the evidence and the classification.
func (d *Detector) OnClean(key FlitKey, obf lob.Choice) {
	if obf.Method == lob.None {
		return
	}
	d.granOK[obf.Gran]++
	i := d.find(key)
	if i < 0 {
		return
	}
	if d.history[i].faults >= 2 && d.bistDone && !d.bistReport.Permanent() {
		// Targeted repeating faults that stop under obfuscation, on a link
		// BIST says is electrically sound: a trojan.
		d.class = Trojan
	}
	// The flit got through; retire its history entry.
	d.history = append(d.history[:i], d.history[i+1:]...)
}

// find returns the index of key's record in the history, or -1.
func (d *Detector) find(key FlitKey) int {
	for i := range d.history {
		if d.history[i].key == key {
			return i
		}
	}
	return -1
}

// SetBISTResult records a completed link scan.
func (d *Detector) SetBISTResult(rep bist.Report) {
	d.bistDone = true
	d.bistReport = rep
	if rep.Permanent() {
		d.class = Permanent
	}
}

// Classification returns the current verdict.
func (d *Detector) Classification() Classification { return d.class }

// TriggerScope reports where the trojan's trigger appears to tap, from the
// granularity evidence: narrowing obfuscation to the header (or payload)
// while still defeating the trojan localises the comparator.
func (d *Detector) TriggerScope() string {
	switch {
	case d.granOK[lob.HeaderOnly] > 0 && d.granFail[lob.PayloadOnly] > 0:
		return "header"
	case d.granOK[lob.PayloadOnly] > 0 && d.granFail[lob.HeaderOnly] > 0:
		return "payload"
	case d.granOK[lob.WholeFlit] > 0:
		return "flit"
	default:
		return "unknown"
	}
}

// Reset forgets every observation — history, BIST outcome, granularity
// evidence and verdict — returning the detector to its post-New state. The
// history's array is kept, so a reset detector does not reallocate it.
func (d *Detector) Reset() { *d = Detector{historyCap: d.historyCap, history: d.history[:0]} }

// Cap reports the configured fault-history capacity.
func (d *Detector) Cap() int { return d.historyCap }
