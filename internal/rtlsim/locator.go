package rtlsim

import (
	"fmt"

	"fidelity/internal/accel"
)

// Phase names the pipeline phase a cycle falls in.
type Phase int

const (
	// PhaseFetch is the CDMA streaming phase.
	PhaseFetch Phase = iota
	// PhaseLoad is a weight-load cycle.
	PhaseLoad
	// PhaseMAC is a multiply-accumulate cycle.
	PhaseMAC
	// PhaseWB is a write-back cycle.
	PhaseWB
	// PhaseIdle is past the end of execution.
	PhaseIdle
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseFetch:
		return "fetch"
	case PhaseLoad:
		return "load"
	case PhaseMAC:
		return "mac"
	case PhaseWB:
		return "wb"
	default:
		return "idle"
	}
}

// SiteInfo is the schedule-level meaning of one (FF, cycle) fault site: which
// loop iteration the sequencer is in at that cycle. This is pure
// scheduling/reuse-algorithm arithmetic — exactly the information the paper
// says suffices to derive software fault models, with no datapath state.
type SiteInfo struct {
	Phase Phase
	// Blk, Grp, R index the position block, channel group, and reduction
	// step (valid in load/mac/wb phases).
	Blk, Grp, R int
	// Dx is the offset within the position block (mac phase).
	Dx int
	// WB is the write-back index within the block (wb phase).
	WB int
	// BlockSize is the number of positions in this block.
	BlockSize int
}

// locate maps an absolute cycle to its schedule coordinates: closed-form in
// the cycle, since every block but the last runs the same tile length.
func (s *schedule) locate(k, t int, cycle int64) SiteInfo {
	c := cycle - s.fetchCycles()
	if c < 0 {
		return SiteInfo{Phase: PhaseFetch}
	}
	groups := int64((s.numCh + k - 1) / k)
	perBlk := groups * s.tileCycles(k, t)
	bs := t
	blk := c / perBlk
	if full := int64(s.numPos / t); blk >= full {
		blk, bs = full, s.numPos%t
	}
	c -= blk * perBlk
	if bs == 0 || c >= groups*s.tileCycles(k, bs) {
		return SiteInfo{Phase: PhaseIdle}
	}
	tile := s.tileCycles(k, bs)
	info := SiteInfo{Blk: int(blk), Grp: int(c / tile), BlockSize: bs}
	c %= tile
	if wb := c - int64(s.numRed)*int64(1+bs); wb >= 0 {
		info.Phase = PhaseWB
		info.WB = int(wb)
		return info
	}
	info.R = int(c / int64(1+bs))
	if off := int(c % int64(1+bs)); off == 0 {
		info.Phase = PhaseLoad
	} else {
		info.Phase = PhaseMAC
		info.Dx = off - 1
	}
	return info
}

// Position returns the output position index the site touches (mac: the
// position being multiplied; wb: the position being written).
func (si SiteInfo) Position(cfg *accel.Config) int {
	switch si.Phase {
	case PhaseMAC:
		return si.Blk*cfg.WeightHoldCycles + si.Dx
	case PhaseWB:
		return si.Blk*cfg.WeightHoldCycles + si.WB/cfg.AtomicK
	default:
		return si.Blk * cfg.WeightHoldCycles
	}
}

// Channel returns the output channel MAC m computes in this group (wb: the
// channel being written).
func (si SiteInfo) Channel(cfg *accel.Config, mac int) int {
	if si.Phase == PhaseWB {
		return si.Grp*cfg.AtomicK + si.WB%cfg.AtomicK
	}
	return si.Grp*cfg.AtomicK + mac
}

func (s *schedule) operandIndices(cfg *accel.Config, si SiteInfo, mac int) (inIdx, wIdx int) {
	p := si.Position(cfg)
	ch := si.Grp*cfg.AtomicK + mac
	inIdx = -1
	if si.Phase == PhaseMAC && p < s.numPos && si.R < s.numRed {
		inIdx = s.aIndex(p, si.R)
	}
	wIdx = -1
	if (si.Phase == PhaseLoad || si.Phase == PhaseMAC) && ch < s.numCh && si.R < s.numRed {
		wIdx = s.wIndex(si.R, ch)
	}
	return inIdx, wIdx
}

func (s *schedule) outIndexOf(p, c int) ([]int, error) {
	if p < 0 || p >= s.numPos || c < 0 || c >= s.numCh {
		return nil, fmt.Errorf("rtlsim: (p=%d, c=%d) outside %dx%d", p, c, s.numPos, s.numCh)
	}
	return s.outIndex(p, c), nil
}
