// Package netlist realizes a mapped domino circuit at the transistor
// level: every device of every gate is enumerated — the nMOS pulldown
// network with named internal nodes, the clocked pMOS precharge, the
// output inverter pair, the pMOS keeper, the optional clocked nMOS foot,
// and one clocked pMOS pre-discharge device per PBE discharge point
// (paper fig. 2(c)). The result is the substrate for the switch-level SOI
// simulator (internal/soisim) and for device-count cross-checks against
// the mapper's statistics.
package netlist

import (
	"fmt"
	"strings"

	"soidomino/internal/mapper"
	"soidomino/internal/pbe"
	"soidomino/internal/sp"
)

// Rail node names shared by every gate.
const (
	GND = "GND"
	VDD = "VDD"
)

// DeviceType classifies a transistor.
type DeviceType uint8

const (
	// NPulldown is an nMOS device of the evaluation network.
	NPulldown DeviceType = iota
	// NFoot is the clocked nMOS foot (only on gates with PI-driven
	// pulldown inputs, or all gates under AlwaysFooted).
	NFoot
	// PPrecharge is the clocked pMOS that charges the dynamic node.
	PPrecharge
	// PKeeper is the feedback pMOS holding the dynamic node high.
	PKeeper
	// PDischarge is a clocked pMOS pulling an internal junction to ground
	// during precharge: the paper's solution to the PBE.
	PDischarge
	// InvP and InvN form the static output inverter.
	InvP
	InvN
	// OutP and OutN form the static NAND/NOR output stage of a compound
	// gate (the paper's solution 7).
	OutP
	OutN
)

var deviceNames = [...]string{
	NPulldown:  "nmos",
	NFoot:      "nfoot",
	PPrecharge: "pprech",
	PKeeper:    "pkeep",
	PDischarge: "pdisch",
	InvP:       "invp",
	InvN:       "invn",
	OutP:       "outp",
	OutN:       "outn",
}

func (d DeviceType) String() string {
	if int(d) < len(deviceNames) {
		return deviceNames[d]
	}
	return fmt.Sprintf("dev(%d)", uint8(d))
}

// Clocked reports whether devices of this type have their gate terminal on
// the clock network (the paper's T_clock population, fig. table III).
func (d DeviceType) Clocked() bool {
	return d == NFoot || d == PPrecharge || d == PDischarge
}

// PMOS reports whether devices of this type sit in the p-diffusion row.
func (d DeviceType) PMOS() bool {
	switch d {
	case PPrecharge, PKeeper, PDischarge, InvP, OutP:
		return true
	}
	return false
}

// Device is a single transistor. Exactly one of the gate-terminal fields
// applies: Clock-gated devices ignore Signal; the keeper and inverter are
// driven by the gate's own nodes (named in Signal).
type Device struct {
	ID    int
	Type  DeviceType
	Owner int // gate id

	// Signal is the name of the net driving the gate terminal ("" for
	// clocked devices). Negated marks a complemented primary-input rail.
	Signal  string
	Negated bool

	Drain, Source string // node names
}

func (d Device) String() string {
	g := "CLK"
	if !d.Type.Clocked() {
		g = d.Signal
		if d.Negated {
			g = "!" + g
		}
	}
	return fmt.Sprintf("%s g=%s d=%s s=%s", d.Type, g, d.Drain, d.Source)
}

// OutputKind names a gate's static output stage.
type OutputKind uint8

const (
	// OutInverter is the standard domino output inverter.
	OutInverter OutputKind = iota
	// OutNAND joins the dynamic nodes of a parallel-split compound gate.
	OutNAND
	// OutNOR joins the dynamic nodes of a series-split compound gate.
	OutNOR
)

func (k OutputKind) String() string {
	switch k {
	case OutNAND:
		return "nand"
	case OutNOR:
		return "nor"
	}
	return "inverter"
}

// GateRealization is the device-level view of one domino gate. Plain
// gates have one dynamic stage; compound gates (paper solution 7) have
// several, joined by a static NAND/NOR output stage.
type GateRealization struct {
	ID      int
	Output  string // output node / signal name
	OutKind OutputKind
	// Dyns and Foots name the per-stage dynamic and foot nodes; a stage's
	// foot is GND when unfooted. Dyn and Foot alias stage 0 for the
	// common single-stage case.
	Dyns  []string
	Foots []string
	Dyn   string
	Foot  string
	// Footed reports whether any stage has an n-clock foot.
	Footed bool
	Level  int
	// Pulldown, Discharge and Overhead index into Circuit.Devices.
	Pulldown  []int
	Discharge []int
	Overhead  []int
	// Internal lists the named internal nodes of the pulldown network and
	// the output stage.
	Internal []string
}

// Stats counts devices by type.
type Stats struct {
	ByType map[DeviceType]int
}

// TLogic is the paper's T_logic: every domino transistor except the
// p-discharge devices.
func (s Stats) TLogic() int {
	t := 0
	for ty, n := range s.ByType {
		if ty != PDischarge {
			t += n
		}
	}
	return t
}

// TDisch is the paper's T_disch.
func (s Stats) TDisch() int { return s.ByType[PDischarge] }

// TTotal is the paper's T_total.
func (s Stats) TTotal() int { return s.TLogic() + s.TDisch() }

// TClock counts clock-connected devices (paper table III).
func (s Stats) TClock() int {
	return s.ByType[PPrecharge] + s.ByType[NFoot] + s.ByType[PDischarge]
}

// Circuit is the transistor-level realization of a mapped result.
type Circuit struct {
	Name    string
	Devices []Device
	Gates   []GateRealization
	// Inputs are the primary-input signal names; InvertedInputs lists the
	// signals whose complemented rail is used by some pulldown device.
	Inputs         []string
	InvertedInputs []string
	// Outputs maps each primary-output name to the node driving it.
	Outputs map[string]string
	// ConstOutputs are outputs tied directly to a rail.
	ConstOutputs map[string]bool
	Stats        Stats
}

// Build realizes every gate of a mapped result at the transistor level.
func Build(r *mapper.Result) (*Circuit, error) {
	c := &Circuit{
		Name:         r.Name,
		Outputs:      make(map[string]string, len(r.OutputGate)),
		ConstOutputs: make(map[string]bool, len(r.ConstOutputs)),
		Stats:        Stats{ByType: make(map[DeviceType]int)},
	}
	for _, id := range r.Source.Inputs {
		c.Inputs = append(c.Inputs, r.Source.Nodes[id].Name)
	}
	inverted := make(map[string]bool)
	for _, g := range r.Gates {
		if err := c.addGate(r, g, inverted); err != nil {
			return nil, err
		}
	}
	for sig := range inverted {
		c.InvertedInputs = append(c.InvertedInputs, sig)
	}
	sortStrings(c.InvertedInputs)
	for name, gid := range r.OutputGate {
		c.Outputs[name] = r.Gates[gid].Output
	}
	for name, v := range r.ConstOutputs {
		c.ConstOutputs[name] = v
	}
	for _, d := range c.Devices {
		c.Stats.ByType[d.Type]++
	}
	return c, nil
}

// stagePlan is the per-stage realization input.
type stagePlan struct {
	nodes      sp.Span
	discharges []pbe.Point
	footed     bool
}

func (c *Circuit) addGate(r *mapper.Result, g *mapper.Gate, inverted map[string]bool) error {
	gr := GateRealization{
		ID:     g.ID,
		Output: g.Output,
		Footed: g.Footed,
		Level:  int(g.Level),
	}
	var stages []stagePlan
	if g.Compound == nil {
		stages = []stagePlan{{nodes: g.Nodes, discharges: g.Discharges, footed: g.Footed}}
	} else {
		if g.Compound.Kind == mapper.CompoundNOR {
			gr.OutKind = OutNOR
		} else {
			gr.OutKind = OutNAND
		}
		for _, st := range g.Compound.Stages {
			stages = append(stages, stagePlan{nodes: st.Nodes, discharges: st.Discharges, footed: st.Footed})
		}
	}

	b := &gateBuilder{c: c, r: r, gr: &gr, inverted: inverted}
	for si, st := range stages {
		dyn := fmt.Sprintf("g%d.dyn", g.ID)
		if g.Compound != nil {
			dyn = fmt.Sprintf("g%d.dyn%d", g.ID, si)
		}
		foot := GND
		if st.footed {
			foot = fmt.Sprintf("g%d.foot", g.ID)
			if g.Compound != nil {
				foot = fmt.Sprintf("g%d.foot%d", g.ID, si)
			}
		}
		gr.Dyns = append(gr.Dyns, dyn)
		gr.Foots = append(gr.Foots, foot)

		// Pulldown network with named junctions; a stage's points are
		// junctions of its own span.
		b.junctions = make(map[pbe.Point]string)
		b.emit(st.nodes, len(st.nodes)-1, dyn, foot)

		// Discharge devices at the PBE analysis' points.
		for _, pt := range st.discharges {
			node, ok := b.junctions[pt]
			if !ok {
				return fmt.Errorf("netlist: gate %d: discharge point %v has no junction node", g.ID, pt)
			}
			id := c.device(Device{Type: PDischarge, Owner: g.ID, Drain: node, Source: GND})
			gr.Discharge = append(gr.Discharge, id)
		}

		// Per-stage overhead: precharge, keeper, optional foot.
		gr.Overhead = append(gr.Overhead,
			c.device(Device{Type: PPrecharge, Owner: g.ID, Drain: dyn, Source: VDD}),
			c.device(Device{Type: PKeeper, Owner: g.ID, Signal: gr.Output, Drain: dyn, Source: VDD}),
		)
		if st.footed {
			gr.Overhead = append(gr.Overhead,
				c.device(Device{Type: NFoot, Owner: g.ID, Drain: foot, Source: GND}))
		}
	}
	gr.Dyn, gr.Foot = gr.Dyns[0], gr.Foots[0]

	// Static output stage.
	switch gr.OutKind {
	case OutInverter:
		gr.Overhead = append(gr.Overhead,
			c.device(Device{Type: InvP, Owner: g.ID, Signal: gr.Dyn, Drain: gr.Output, Source: VDD}),
			c.device(Device{Type: InvN, Owner: g.ID, Signal: gr.Dyn, Drain: gr.Output, Source: GND}),
		)
	case OutNAND:
		// Parallel pMOS pull-up, series nMOS pull-down.
		prev := gr.Output
		for si, dyn := range gr.Dyns {
			gr.Overhead = append(gr.Overhead,
				c.device(Device{Type: OutP, Owner: g.ID, Signal: dyn, Drain: gr.Output, Source: VDD}))
			next := GND
			if si < len(gr.Dyns)-1 {
				next = fmt.Sprintf("g%d.os%d", g.ID, si)
				gr.Internal = append(gr.Internal, next)
			}
			gr.Overhead = append(gr.Overhead,
				c.device(Device{Type: OutN, Owner: g.ID, Signal: dyn, Drain: prev, Source: next}))
			prev = next
		}
	case OutNOR:
		// Series pMOS pull-up, parallel nMOS pull-down.
		prev := VDD
		for si, dyn := range gr.Dyns {
			next := gr.Output
			if si < len(gr.Dyns)-1 {
				next = fmt.Sprintf("g%d.os%d", g.ID, si)
				gr.Internal = append(gr.Internal, next)
			}
			gr.Overhead = append(gr.Overhead,
				c.device(Device{Type: OutP, Owner: g.ID, Signal: dyn, Drain: next, Source: prev}),
				c.device(Device{Type: OutN, Owner: g.ID, Signal: dyn, Drain: gr.Output, Source: GND}))
			prev = next
		}
	}
	c.Gates = append(c.Gates, gr)
	return nil
}

func (c *Circuit) device(d Device) int {
	d.ID = len(c.Devices)
	c.Devices = append(c.Devices, d)
	return d.ID
}

// gateBuilder walks one pulldown span emitting devices and junction
// nodes.
type gateBuilder struct {
	c         *Circuit
	r         *mapper.Result
	gr        *GateRealization
	inverted  map[string]bool
	junctions map[pbe.Point]string
}

// emit realizes the subtree rooted at s[i] between nodes top and bottom.
func (b *gateBuilder) emit(s sp.Span, i int, top, bottom string) {
	n := s[i]
	switch n.Kind {
	case sp.Leaf:
		signal := b.r.Signal(n)
		if n.Negated && n.FromPI() {
			b.inverted[signal] = true
		}
		id := b.c.device(Device{
			Type: NPulldown, Owner: b.gr.ID,
			Signal: signal, Negated: n.Negated,
			Drain: top, Source: bottom,
		})
		b.gr.Pulldown = append(b.gr.Pulldown, id)
	case sp.Parallel:
		for _, child := range s.Children(i, nil) {
			b.emit(s, child, top, bottom)
		}
	case sp.Series:
		prev := top
		children := s.Children(i, nil)
		for k, child := range children {
			next := bottom
			if k < len(children)-1 {
				next = fmt.Sprintf("g%d.n%d", b.gr.ID, len(b.gr.Internal))
				b.gr.Internal = append(b.gr.Internal, next)
				b.junctions[pbe.Point{Node: int32(i), Below: int32(k)}] = next
			}
			b.emit(s, child, prev, next)
			prev = next
		}
	}
}

// Dump renders the whole circuit, one device per line.
func (c *Circuit) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "circuit %s: %d gates, %d devices\n", c.Name, len(c.Gates), len(c.Devices))
	for _, g := range c.Gates {
		fmt.Fprintf(&sb, "gate %d out=%s dyn=%s footed=%v level=%d\n",
			g.ID, g.Output, g.Dyn, g.Footed, g.Level)
		for _, id := range g.Pulldown {
			fmt.Fprintf(&sb, "  %s\n", c.Devices[id])
		}
		for _, id := range g.Discharge {
			fmt.Fprintf(&sb, "  %s\n", c.Devices[id])
		}
		for _, id := range g.Overhead {
			fmt.Fprintf(&sb, "  %s\n", c.Devices[id])
		}
	}
	return sb.String()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
