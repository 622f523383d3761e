// Package exp reproduces every table and figure of the paper's evaluation:
// the machine descriptions (Bridges, Stampede2), the calibrated workloads
// (CFD + n-th moment, LAMMPS + MSD, three synthetic kernels + variance), and
// one runner per experiment that emits the same rows or series the paper
// reports. Absolute seconds depend on the calibrated substrate, so each
// runner's output should be compared by shape: ordering, ratios, and
// crossover points (this package's tests assert them).
package exp

import (
	"time"

	"zipper/internal/workflow"
)

// Bridges models the PSC Bridges system (§3, §6): 752 regular nodes with two
// 14-core Haswell CPUs (28 cores) and 128 GB each, a 100 Gbps Intel
// Omni-Path fabric (12.5 GB/s ports, 42-port leaf switches), and a 10 PB
// Lustre parallel file system.
func Bridges() workflow.Machine {
	return workflow.Machine{
		Name:                 "Bridges",
		CoresPerNode:         28,
		LinkBandwidth:        12.5e9, // 100 Gbps OPA port
		LinkLatency:          time.Microsecond,
		NodesPerLeaf:         42, // OPA leaf edge switch ports (§6.2.1)
		CoreOversubscription: 2,
		MTU:                  1 << 20,
		OSTs:                 16,
		OSTBandwidth:         4e9, // ≈64 GB/s aggregate Lustre write
		PFSStripeSize:        1 << 20,
		PFSBackgroundLoad:    0.7, // shared by many other users (§3)
		MemBandwidth:         10e9,
		CongestionPenalty:    0.06,
	}
}

// Stampede2 models the TACC Stampede2 system (§6): 4,200 self-booting
// Knights Landing nodes (68 cores, 96 GB DDR + 16 GB MCDRAM), Intel
// Omni-Path, and a 30 PB Lustre file system.
func Stampede2() workflow.Machine {
	return workflow.Machine{
		Name:                 "Stampede2",
		CoresPerNode:         68,
		LinkBandwidth:        12.5e9,
		LinkLatency:          time.Microsecond,
		NodesPerLeaf:         48,
		CoreOversubscription: 2,
		MTU:                  1 << 20,
		OSTs:                 24,
		OSTBandwidth:         1.5e9,
		PFSStripeSize:        4 << 20,
		PFSBackgroundLoad:    0.25,
		MemBandwidth:         8e9, // KNL DDR per-process share
		CongestionPenalty:    0.06,
	}
}
