// Package vmwild is a library-scale reproduction of "Virtual Machine
// Consolidation in the Wild" (Verma, Bagrodia, Jaiswal — Middleware 2014):
// a study of how static, semi-static, stochastic and dynamic VM
// consolidation behave on large enterprise workloads.
//
// The package offers three levels of API:
//
//   - Workload level: Banking, Airlines, NaturalResources and Beverage
//     return the four calibrated data-center profiles of the paper's
//     Table 2; Generate synthesizes their demand traces deterministically.
//
//   - Planning level: SemiStatic, Stochastic and Dynamic planners turn a
//     monitoring window into a consolidation plan (servers to provision
//     plus an hour-by-hour schedule), which Study.PlanAndReplay evaluates
//     on an emulated data center (utilization, power, contention).
//
//   - Study level: NewStudy wires workload, planners and emulator together
//     and exposes every table and figure of the paper's evaluation;
//     WriteReport renders the whole reproduction.
//
// A quickstart:
//
//	study, err := vmwild.NewStudy(vmwild.Banking())
//	if err != nil { ... }
//	rows, err := study.CompareCosts() // Figure 7
//	sens, err := study.Sensitivity(nil) // Figure 13
//
// Everything is deterministic under a fixed seed (DefaultSeed); the
// synthetic workload generator substitutes for the paper's proprietary
// traces and is calibrated against the published distributions (see
// DESIGN.md and the calibration tests).
package vmwild
