package service

import (
	"encoding/json"

	"soidomino/internal/mapper"
	"soidomino/internal/report"
)

// MapResult is the JSON encoding of one finished mapping job. It is the
// single result type of the subsystem: the daemon returns it from the job
// API and `soimap -json` prints it, so the two outputs are byte-identical
// for the same circuit, algorithm and options (see EncodeJSON).
type MapResult struct {
	Circuit   string      `json:"circuit"`
	Algorithm string      `json:"algorithm"`
	Options   OptionsJSON `json:"options"`
	Source    NetworkJSON `json:"source"`
	// Unate describes the decomposed, unate-converted network the mapper
	// consumed; Duplicated counts the gates the bubble-pushing duplicated.
	Unate      NetworkJSON `json:"unate"`
	Duplicated int         `json:"duplicated_gates"`
	// Strash summarizes the canonicalization front-end's reduction;
	// absent when the run opted out (options.strash_off). The counts are
	// structural, not timing, so they are deterministic and safe inside
	// the byte-compared encoding.
	Strash *StrashJSON `json:"strash,omitempty"`
	Stats  StatsJSON   `json:"stats"`
	Gates  []GateJSON  `json:"gates"`
	// Degraded marks a Pareto run whose tuple budget overflowed: the
	// mapping is complete and audit-clean but frontier exploration was
	// truncated (see mapper.Result.Degraded).
	Degraded bool `json:"degraded,omitempty"`
}

// OptionsJSON mirrors the result-shaping fields of mapper.Options; the
// deprecated Options.Workers has no effect on the result and is absent.
type OptionsJSON struct {
	MaxWidth      int    `json:"max_width"`
	MaxHeight     int    `json:"max_height"`
	Objective     string `json:"objective"`
	ClockWeight   int    `json:"clock_weight"`
	DepthWeight   int    `json:"depth_weight"`
	AlwaysFooted  bool   `json:"always_footed,omitempty"`
	Pareto        bool   `json:"pareto,omitempty"`
	TupleBudget   int    `json:"tuple_budget,omitempty"`
	SequenceAware bool   `json:"sequence_aware,omitempty"`
	StrashOff     bool   `json:"strash_off,omitempty"`
}

// StrashJSON summarizes the strash front-end's reduction of one source
// network (see strash.Counters).
type StrashJSON struct {
	NodesIn  int `json:"nodes_in"`
	NodesOut int `json:"nodes_out"`
	Merged   int `json:"merged"`
	Folded   int `json:"folded"`
	Dead     int `json:"dead"`
}

// NetworkJSON summarizes one logic network.
type NetworkJSON struct {
	Name    string `json:"name"`
	Inputs  int    `json:"inputs"`
	Outputs int    `json:"outputs"`
	Gates   int    `json:"gates"`
	Depth   int    `json:"depth"`
}

// StatsJSON mirrors mapper.Stats (the paper's reported metrics).
type StatsJSON struct {
	TLogic         int `json:"t_logic"`
	TDisch         int `json:"t_disch"`
	TTotal         int `json:"t_total"`
	Gates          int `json:"gates"`
	TClock         int `json:"t_clock"`
	Levels         int `json:"levels"`
	InputInverters int `json:"input_inverters"`
}

// GateJSON summarizes one mapped domino gate.
type GateJSON struct {
	ID         int    `json:"id"`
	Output     string `json:"output"`
	Level      int    `json:"level"`
	Pulldown   int    `json:"pulldown"`
	Discharges int    `json:"discharges"`
	Footed     bool   `json:"footed,omitempty"`
	// Compound is set for gates realized as multiple dynamic stages joined
	// by a static NAND/NOR (the paper's solution 7).
	Compound *CompoundJSON `json:"compound,omitempty"`
}

// CompoundJSON describes a compound gate's static output stage.
type CompoundJSON struct {
	Kind   string `json:"kind"`
	Stages int    `json:"stages"`
}

// NewMapResult flattens a finished pipeline + mapping into the shared
// encoding. The circuit argument names the submission (benchmark name or
// file stem); it may differ from the network's own name.
func NewMapResult(circuit string, p *report.Pipeline, res *mapper.Result) *MapResult {
	srcStats := p.Orig.Stats()
	unateStats := p.Unate.Stats()
	r := &MapResult{
		Circuit:   circuit,
		Algorithm: res.Algorithm,
		Options: OptionsJSON{
			MaxWidth:      res.Options.MaxWidth,
			MaxHeight:     res.Options.MaxHeight,
			Objective:     res.Options.Objective.String(),
			ClockWeight:   res.Options.ClockWeight,
			DepthWeight:   res.Options.DepthWeight,
			AlwaysFooted:  res.Options.AlwaysFooted,
			Pareto:        res.Options.Pareto,
			TupleBudget:   res.Options.TupleBudget,
			SequenceAware: res.Options.SequenceAware,
			StrashOff:     res.Options.StrashOff,
		},
		Source: NetworkJSON{
			Name:    p.Orig.Name,
			Inputs:  srcStats.Inputs,
			Outputs: srcStats.Outputs,
			Gates:   srcStats.Gates,
			Depth:   srcStats.Depth,
		},
		Unate: NetworkJSON{
			Name:    p.Unate.Name,
			Inputs:  unateStats.Inputs,
			Outputs: unateStats.Outputs,
			Gates:   unateStats.Gates,
			Depth:   unateStats.Depth,
		},
		Duplicated: p.Duplicated,
		Stats: StatsJSON{
			TLogic:         res.Stats.TLogic,
			TDisch:         res.Stats.TDisch,
			TTotal:         res.Stats.TTotal,
			Gates:          res.Stats.Gates,
			TClock:         res.Stats.TClock,
			Levels:         res.Stats.Levels,
			InputInverters: res.Stats.InputInverters,
		},
		Gates:    make([]GateJSON, 0, len(res.Gates)),
		Degraded: res.Degraded,
	}
	if p.Strash != nil {
		c := p.Strash.Counters
		r.Strash = &StrashJSON{
			NodesIn: c.NodesIn, NodesOut: c.NodesOut,
			Merged: c.Merged, Folded: c.Folded, Dead: c.Dead,
		}
	}
	for _, g := range res.Gates {
		gj := GateJSON{
			ID:         g.ID,
			Output:     g.Output,
			Level:      g.Level,
			Pulldown:   g.Pulldown(),
			Discharges: len(g.Discharges),
			Footed:     g.Footed,
		}
		if g.Compound != nil {
			gj.Compound = &CompoundJSON{
				Kind:   g.Compound.Kind.String(),
				Stages: len(g.Compound.Stages),
			}
		}
		r.Gates = append(r.Gates, gj)
	}
	return r
}

// EncodeJSON renders a MapResult in the subsystem's wire form: two-space
// indented JSON with a trailing newline. Both soimapd and `soimap -json`
// go through this function, which is what makes their outputs comparable
// byte for byte.
func EncodeJSON(r *MapResult) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
