// Package soidomino reproduces "Technology Mapping for SOI Domino Logic
// Incorporating Solutions for the Parasitic Bipolar Effect" (Karandikar &
// Sapatnekar, DAC 2001): a library-free dynamic-programming technology
// mapper that turns random logic into domino gates for
// Silicon-on-Insulator, minimizing total transistor count including the
// clocked pre-discharge devices that keep the parasitic bipolar effect
// from corrupting dynamic nodes.
//
// The implementation lives under internal/:
//
//	logic      Boolean network substrate
//	blif       BLIF-subset reader/writer
//	unate      lowering to unate form: 2-input AND/OR decomposition over
//	           a flat literal table, then bubble pushing
//	sp         series-parallel pulldown trees
//	pbe        discharge-point analysis and stack rearrangement
//	tuple      DP sub-solution records ({W,H,cost,p_dis,par_b} tuples)
//	mapper     Domino_Map, RS_Map, SOI_Domino_Map
//	netlist    transistor-level realization
//	soisim     switch-level SOI simulator with a floating-body PBE model
//	verify     functional equivalence checking
//	bench      benchmark circuit suite (ISCAS/MCNC substitutes)
//	report     experiment harness regenerating the paper's tables
//
// Entry points: cmd/soimap (map one circuit), cmd/tables (regenerate the
// paper's Tables I-IV), cmd/pbesim (switch-level PBE demonstrations), and
// the runnable walkthroughs under examples/. The benchmarks in
// bench_test.go regenerate one paper table or figure each; see DESIGN.md
// for the experiment index and EXPERIMENTS.md for paper-vs-measured
// results.
package soidomino
