package nn

import (
	"fmt"
	"hash/fnv"
	"math"

	"fidelity/internal/numerics"
	"fidelity/internal/tensor"
)

// Network pairs a layer graph with the datapath precision it executes at and
// gives the fault-injection engine a stable view of its injection sites.
type Network struct {
	// NetName identifies the network (e.g. "inception-lite").
	NetName string
	// Root is the layer graph.
	Root Layer
	// Precision is the datapath number format the network runs at.
	Precision numerics.Precision
	// Codec is the calibrated codec shared by all compute layers.
	Codec numerics.Codec

	sites []Site

	// clamps holds the installed range-restriction envelopes (see clamp.go).
	// Written only by SetClamp during hardening setup; read-only
	// once forward passes start, so concurrent workers may share the network.
	clamps map[Layer]Bound
}

// NewNetwork wraps a layer graph.
func NewNetwork(name string, root Layer, codec numerics.Codec) *Network {
	return &Network{
		NetName:   name,
		Root:      root,
		Precision: codec.Precision(),
		Codec:     codec,
		sites:     Sites(root),
	}
}

// Name returns the network name.
func (n *Network) Name() string { return n.NetName }

// SiteByName returns the site with the given name.
func (n *Network) SiteByName(name string) (Site, error) {
	for _, s := range n.sites {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("nn: network %s has no site %q", n.NetName, name)
}

// SetClamp installs a range-restriction envelope on one compute site. Call
// only during hardening setup, before any forward pass runs; envelopes are
// read-only afterwards so concurrent workers can share the network.
func (n *Network) SetClamp(s Site, b Bound) {
	if n.clamps == nil {
		n.clamps = map[Layer]Bound{}
	}
	n.clamps[s] = b
}

// Hardened reports whether any range-restriction envelope is installed.
func (n *Network) Hardened() bool { return len(n.clamps) > 0 }

// ClampFingerprint digests the installed range-restriction envelopes, site
// by site in graph order, or returns "" when none is installed. Clamps change
// every experiment's forward pass, so a campaign's checkpoint identity
// carries it.
func (n *Network) ClampFingerprint() string {
	if len(n.clamps) == 0 {
		return ""
	}
	h := fnv.New64a()
	for i, s := range n.sites {
		if b, ok := n.clamps[s]; ok {
			fmt.Fprintf(h, "%d:%s:%08x:%08x|", i, s.Name(), math.Float32bits(b.Lo), math.Float32bits(b.Hi))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// instrument threads the installed clamp set into ctx so every execution
// path (plain, record, replay) applies the envelopes. An unhardened network
// passes ctx through untouched; a hardened one materializes a context even
// for plain forward passes.
func (n *Network) instrument(ctx *Context) *Context {
	if len(n.clamps) == 0 {
		return ctx
	}
	if ctx == nil {
		ctx = NewContext(nil)
	}
	ctx.clamps = n.clamps
	return ctx
}

// Forward runs a clean inference.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	return n.Root.Forward(x, n.instrument(nil))
}

// ForwardWithHook runs an inference with an injection hook installed at all
// compute sites.
func (n *Network) ForwardWithHook(x *tensor.Tensor, hook Hook) *tensor.Tensor {
	return n.Root.Forward(x, n.instrument(NewContext(hook)))
}

// ForwardWithContext runs an inference through an explicit context — used by
// the replay engine, which reuses record/replay contexts across passes.
func (n *Network) ForwardWithContext(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	return n.Root.Forward(x, n.instrument(ctx))
}

// SiteExecution captures one execution of a site during a forward pass:
// operand shapes plus the output, for fault-site sampling.
type SiteExecution struct {
	Site     Site
	Visit    int
	InShape  []int
	WShape   []int
	BSize    int
	OutSize  int
	OutShape []int
	// Golden is the recorded golden output of this execution, populated by
	// TraceWithActivations (nil for plain Trace).
	Golden *tensor.Tensor
}

// Trace runs a clean forward pass and records every site execution, so a
// campaign can sample fault sites proportionally to the work each site
// performs.
func (n *Network) Trace(x *tensor.Tensor) (*tensor.Tensor, []SiteExecution) {
	var execs []SiteExecution
	out := n.ForwardWithHook(x, func(site Layer, visit int, op *Operands) {
		execs = append(execs, siteExecution(site, visit, op))
	})
	return out, execs
}

// siteExecution describes one execution of site from its operands, the
// recording step of Trace and TraceWithActivations. Shapes are copied, so the
// record aliases no operand tensor.
func siteExecution(site Layer, visit int, op *Operands) SiteExecution {
	e := SiteExecution{Visit: visit, OutSize: op.Out.Size(), OutShape: append([]int(nil), op.Out.Shape()...)}
	if s, ok := site.(Site); ok {
		e.Site = s
	}
	if op.In != nil {
		e.InShape = append([]int(nil), op.In.Shape()...)
	}
	if op.W != nil {
		e.WShape = append([]int(nil), op.W.Shape()...)
	}
	if op.B != nil {
		e.BSize = op.B.Size()
	}
	return e
}

// TraceWithActivations runs a clean forward pass in record mode: like Trace,
// but every layer execution's golden output tensor is captured into the
// returned GoldenTrace (and each SiteExecution carries its golden output), so
// subsequent injections can replay incrementally instead of recomputing the
// full network.
func (n *Network) TraceWithActivations(x *tensor.Tensor) (*tensor.Tensor, []SiteExecution, *GoldenTrace) {
	var execs []SiteExecution
	ctx, trace := NewRecordContext(func(site Layer, visit int, op *Operands) {
		e := siteExecution(site, visit, op)
		e.Golden = op.Out
		execs = append(execs, e)
	})
	trace.MarkGolden(x)
	out := n.Root.Forward(x, n.instrument(ctx))
	return out, execs, trace
}
