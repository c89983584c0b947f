// Package power estimates the dynamic power of a mapped domino circuit
// from switching activity, separating the two components the paper's
// Table III trades against each other:
//
//   - Evaluation power: a domino gate burns energy every cycle its
//     dynamic node discharges and is precharged again. The discharge
//     probability is the gate's output activity (the probability its
//     pulldown conducts), measured by simulating the source network over
//     random vectors.
//   - Clock power: every clock edge drives the gate capacitance of all
//     clock-connected devices — p-precharge, n-clock feet and p-discharge
//     transistors — every cycle, regardless of data. This is the load the
//     paper's k-weighting exists to reduce.
//
// Capacitances are in normalized gate-capacitance units (one unit per
// transistor gate terminal); energies are per cycle.
package power

import (
	"fmt"
	"math/rand"

	"soidomino/internal/mapper"
)

// Params weight the model's capacitance classes.
type Params struct {
	// CapGate is the input capacitance of one transistor gate terminal.
	CapGate float64
	// CapDyn is the dynamic-node capacitance per attached device terminal.
	CapDyn float64
	// Vectors is the sample size for activity estimation.
	Vectors int
	// Seed makes the estimate reproducible.
	Seed int64
}

// DefaultParams returns the configuration used by the experiments.
func DefaultParams() Params {
	return Params{CapGate: 1.0, CapDyn: 0.5, Vectors: 512, Seed: 1}
}

// Estimate is the per-cycle energy breakdown.
type Estimate struct {
	// Evaluation is Σ activity(g) · C_dyn(g): data-dependent switching.
	Evaluation float64
	// Clock is Σ clocked devices · CapGate: burned every cycle.
	Clock float64
	// Activity[g] is the measured discharge probability of gate g.
	Activity []float64
}

// Total is evaluation plus clock energy.
func (e *Estimate) Total() float64 { return e.Evaluation + e.Clock }

func (e *Estimate) String() string {
	return fmt.Sprintf("eval %.1f + clock %.1f = %.1f per cycle (normalized)",
		e.Evaluation, e.Clock, e.Total())
}

// Analyze measures switching activity over random vectors and folds it
// into the energy model.
func Analyze(res *mapper.Result, p Params) (*Estimate, error) {
	if p.Vectors <= 0 {
		p = DefaultParams()
	}
	rng := rand.New(rand.NewSource(p.Seed))
	inputs := make([]bool, len(res.Source.Inputs))
	gates := make([]bool, len(res.Gates))
	fires := make([]int, len(res.Gates))
	for v := 0; v < p.Vectors; v++ {
		for i := range inputs {
			inputs[i] = rng.Intn(2) == 1
		}
		for _, g := range res.Gates {
			on := g.Nodes.Conducts(inputs, gates)
			gates[g.ID] = on
			if on {
				fires[g.ID]++
			}
		}
	}

	est := &Estimate{Activity: make([]float64, len(res.Gates))}
	for _, g := range res.Gates {
		act := float64(fires[g.ID]) / float64(p.Vectors)
		est.Activity[g.ID] = act
		// Dynamic node capacitance: pulldown top devices, precharge,
		// keeper and the output stage all hang off it; approximate with
		// the stage's device count.
		cdyn := p.CapDyn * float64(g.Pulldown()+2*g.StageCount()+2)
		est.Evaluation += act * cdyn
		est.Clock += p.CapGate * float64(g.ClockTransistors())
	}
	return est, nil
}
