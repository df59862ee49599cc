// Package obfe2e is the end-to-end obfuscation baseline (FortNoCs [19])
// used in Figure 11(a): the source network interface scrambles a packet's
// data — the memory address and the payload body — with a key shared with
// the destination, and the destination unscrambles on ejection.
//
// Its structural weakness, which the paper exploits, is that the routing
// fields (source, destination, VC) must stay in plaintext for the packet to
// be routable at all. A TASP trojan triggering on those fields therefore
// sails straight through e2e obfuscation, and "when e2e obfuscation fails,
// it is too late": back-pressure builds exactly as with no protection. Only
// memory-address-triggered trojans are (probabilistically) defeated.
package obfe2e

import (
	"tasp/internal/flit"
	"tasp/internal/xrand"
)

// Scrambler provides per source/destination pair keystreams.
type Scrambler struct {
	seed uint64
}

// New returns a scrambler domain keyed by a chip-wide secret seed.
func New(seed uint64) *Scrambler { return &Scrambler{seed: seed} }

// Reseed rekeys the scrambler domain in place (arena reuse across runs).
func (s *Scrambler) Reseed(seed uint64) { s.seed = seed }

// key derives the pair key for (src, dst). Both endpoints can compute it;
// a link trojan cannot (the seed never crosses a link).
func (s *Scrambler) key(src, dst uint8) uint64 {
	x := s.seed ^ uint64(src)<<32 ^ uint64(dst)<<40
	// splitmix64 finaliser.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Apply scrambles a packet in place at the source NI: the memory address
// and every body word are XORed with the pair keystream. Routing fields
// stay in plaintext — they must, for the NoC to deliver the packet.
// Applying it again at the destination NI unscrambles, because the
// keystream is regenerated from the same pair key and sequence number.
func (s *Scrambler) Apply(p *flit.Packet) {
	ks := xrand.New(s.key(p.Hdr.SrcR, p.Hdr.DstR) ^ uint64(p.Hdr.Seq))
	p.Hdr.Mem ^= uint32(ks.Uint64())
	for i := range p.Body {
		p.Body[i] ^= ks.Uint64()
	}
}
