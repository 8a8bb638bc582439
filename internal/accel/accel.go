// Package accel describes deep-learning accelerator designs at the level of
// detail FIdelity needs: the hardware configuration parameters, the
// scheduling/reuse algorithm parameters, and the flip-flop census — which
// fraction of the design's FFs falls in each datapath/control category.
//
// This is deliberately *high-level* information: everything in a Config can
// be read off a block diagram or architectural description (or estimated and
// varied for sensitivity analysis), which is the paper's central claim — no
// RTL access is required to derive accurate software fault models.
package accel

import (
	"fmt"
	"strings"
)

// Position is the pipeline position of a datapath FF, following the
// partitioning of Table I.
type Position int

const (
	// BeforeCBUF covers FFs on the path from DRAM to each level of on-chip
	// memory (NVDLA: the CDMA pipeline feeding CBUF).
	BeforeCBUF Position = iota
	// CBUFToMAC covers FFs between the L1 on-chip memory and the MAC array
	// (NVDLA: the CSC sequencing pipeline), and operand registers inside MACs.
	CBUFToMAC
	// InsideMAC covers FFs inside MAC units (partial sums, product registers).
	InsideMAC
	// AfterMAC covers FFs downstream of accumulation (NVDLA: CACC output
	// registers and the SDP pipeline before write-back).
	AfterMAC
)

// String returns the Table I name of the position.
func (p Position) String() string {
	switch p {
	case BeforeCBUF:
		return "before CBUF"
	case CBUFToMAC:
		return "between CBUF & MAC"
	case InsideMAC:
		return "inside MAC"
	case AfterMAC:
		return "after MAC"
	default:
		return fmt.Sprintf("Position(%d)", int(p))
	}
}

// VarType is the variable type a datapath FF stores (Accelerator Property 2:
// datapath FFs only ever hold software-visible DNN variables).
type VarType int

const (
	// VarInput marks input/activation values.
	VarInput VarType = iota
	// VarWeight marks weight values.
	VarWeight
	// VarBias marks bias values.
	VarBias
	// VarPartialSum marks accumulator partial sums.
	VarPartialSum
	// VarOutput marks completed output values.
	VarOutput
)

// String returns the variable-type name.
func (v VarType) String() string {
	switch v {
	case VarInput:
		return "input"
	case VarWeight:
		return "weight"
	case VarBias:
		return "bias"
	case VarPartialSum:
		return "partial sum"
	case VarOutput:
		return "output"
	default:
		return fmt.Sprintf("VarType(%d)", int(v))
	}
}

// FFClass separates datapath FFs from the two control categories of
// Sec. III-B3.
type FFClass int

const (
	// Datapath FFs store DNN variable values.
	Datapath FFClass = iota
	// LocalControl FFs are coupled to a deterministic set of datapath FFs
	// (valid bits, mux selects).
	LocalControl
	// GlobalControl FFs hold layer configuration or memory sequencing state
	// and affect a large number of (or all) output neurons.
	GlobalControl
)

// String returns the class name.
func (c FFClass) String() string {
	switch c {
	case Datapath:
		return "datapath"
	case LocalControl:
		return "local control"
	case GlobalControl:
		return "global control"
	default:
		return fmt.Sprintf("FFClass(%d)", int(c))
	}
}

// Component identifies the hardware block an FF group belongs to, used by
// the activeness analysis (a component that is idle makes all of its FFs
// temporally inactive — Class 3).
type Component int

const (
	// CompFetch is the DMA/fetch pipeline feeding the on-chip buffer.
	CompFetch Component = iota
	// CompSequencer is the on-chip-buffer-to-MAC sequencing logic.
	CompSequencer
	// CompMAC is the MAC array.
	CompMAC
	// CompPost is the post-processing pipeline (bias/activation/pooling,
	// write-back).
	CompPost
	// CompConfig is the global configuration/CSR block.
	CompConfig
)

// String returns the component name.
func (c Component) String() string {
	switch c {
	case CompFetch:
		return "fetch"
	case CompSequencer:
		return "sequencer"
	case CompMAC:
		return "mac"
	case CompPost:
		return "post"
	case CompConfig:
		return "config"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// Category is the software-fault-model category of an FF: its class, and for
// datapath FFs the (variable type, pipeline position) pair that determines
// its reuse behaviour (Datapath RF Property 3: all FFs in one category share
// one RF).
type Category struct {
	Class FFClass
	Var   VarType  // meaningful when Class == Datapath
	Pos   Position // meaningful when Class == Datapath
}

// String renders the category the way Table II labels rows.
func (c Category) String() string {
	switch c.Class {
	case Datapath:
		return fmt.Sprintf("%s/%s", c.Pos, c.Var)
	default:
		return c.Class.String()
	}
}

// MarshalText lets Category key JSON maps (the per-category FIT breakdowns),
// using the Table II row label.
func (c Category) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses the Table II row label back into a Category, so a
// Config (whose census rows carry categories) round-trips through JSON — a
// distributed worker receives its accelerator description over the wire.
func (c *Category) UnmarshalText(text []byte) error {
	s := string(text)
	if i := strings.LastIndex(s, "/"); i >= 0 {
		pos, vt := s[:i], s[i+1:]
		c.Class = Datapath
		switch pos {
		case BeforeCBUF.String():
			c.Pos = BeforeCBUF
		case CBUFToMAC.String():
			c.Pos = CBUFToMAC
		case InsideMAC.String():
			c.Pos = InsideMAC
		case AfterMAC.String():
			c.Pos = AfterMAC
		default:
			return fmt.Errorf("accel: unknown pipeline position %q", pos)
		}
		for _, v := range []VarType{VarInput, VarWeight, VarBias, VarPartialSum, VarOutput} {
			if vt == v.String() {
				c.Var = v
				return nil
			}
		}
		return fmt.Errorf("accel: unknown variable type %q", vt)
	}
	c.Var, c.Pos = 0, 0
	switch s {
	case Datapath.String():
		c.Class = Datapath
	case LocalControl.String():
		c.Class = LocalControl
	case GlobalControl.String():
		c.Class = GlobalControl
	default:
		return fmt.Errorf("accel: unknown FF category %q", s)
	}
	return nil
}

// FFGroup is one census row: a category, the component it lives in, and the
// fraction of the design's FFs it contains, plus the sub-fractions that the
// activeness analysis needs.
type FFGroup struct {
	Cat       Category
	Component Component
	// Frac is this group's share of all FFs in the design (Table II "%FF").
	Frac float64
	// DecompressFrac is the share of the group inside the weight
	// decompression unit — Class 1 inactive whenever weights are
	// uncompressed.
	DecompressFrac float64
	// FPOnlyFrac is the share of the group used only for floating-point
	// arithmetic — Class 2 inactive for integer workloads.
	FPOnlyFrac float64
	// IntOnlyFrac is the share used only for integer arithmetic — Class 2
	// inactive for FP workloads.
	IntOnlyFrac float64
}

// Config is the complete high-level description of an accelerator that
// FIdelity consumes.
type Config struct {
	// Name identifies the design (e.g. "nvdla-small").
	Name string

	// AtomicK is the number of output channels computed in parallel each
	// cycle (the k² parallel MAC groups of Fig 2a; NVDLA: 16).
	AtomicK int
	// AtomicC is the number of input channels each MAC consumes per cycle
	// (NVDLA atomic-C; affects MAC cycle counts, not reuse sets).
	AtomicC int
	// WeightHoldCycles is t of Fig 2a: the number of cycles a weight value
	// is held and reused inside a MAC (NVDLA: 16).
	WeightHoldCycles int

	// NumFFs is the total flip-flop count of the design. An estimate is
	// sufficient; it scales the FIT rate linearly (Eq. 2).
	NumFFs int
	// FetchBytesPerCycle is the on-chip-buffer fill bandwidth, used by the
	// performance model for Class 3 activeness.
	FetchBytesPerCycle int
	// CBUFBytes is the size of the L1 on-chip buffer.
	CBUFBytes int

	// Census lists the FF groups. Fracs must sum to 1.
	Census []FFGroup
}

// Validate checks internal consistency.
func (c *Config) Validate() error {
	if c.AtomicK <= 0 || c.WeightHoldCycles <= 0 || c.AtomicC <= 0 {
		return fmt.Errorf("accel: %s: atomics must be positive (k=%d, c=%d, t=%d)",
			c.Name, c.AtomicK, c.AtomicC, c.WeightHoldCycles)
	}
	if c.NumFFs <= 0 {
		return fmt.Errorf("accel: %s: NumFFs must be positive", c.Name)
	}
	if c.FetchBytesPerCycle <= 0 || c.CBUFBytes <= 0 {
		return fmt.Errorf("accel: %s: memory parameters must be positive", c.Name)
	}
	var sum float64
	for _, g := range c.Census {
		if g.Frac < 0 || g.Frac > 1 {
			return fmt.Errorf("accel: %s: census fraction %v out of range for %v", c.Name, g.Frac, g.Cat)
		}
		if g.DecompressFrac < 0 || g.FPOnlyFrac < 0 || g.IntOnlyFrac < 0 ||
			g.DecompressFrac+g.FPOnlyFrac+g.IntOnlyFrac > 1+1e-9 {
			return fmt.Errorf("accel: %s: sub-fractions of %v exceed 1", c.Name, g.Cat)
		}
		sum += g.Frac
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("accel: %s: census fractions sum to %v, want 1", c.Name, sum)
	}
	return nil
}
