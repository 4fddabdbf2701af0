// Command numasim prints the simulated machine the way numactl
// --hardware prints a real one: nodes with their cores and memory, the
// node distance matrix and the interconnect links. The migration
// primitives are walked through in examples/.
//
// Usage:
//
//	numasim                           # the paper's 4x4 Opteron host
//	numasim -nodes 8 -cores 2         # non-default machine shapes
package main

import (
	"flag"
	"fmt"
	"os"

	"numamig"
	"numamig/internal/topology"
)

func main() {
	nodes := flag.Int("nodes", 4, fmt.Sprintf("NUMA nodes (1..%d)", topology.MaxNodes))
	cores := flag.Int("cores", 4, "cores per node (at least 1)")
	flag.Parse()
	if err := checkShape(*nodes, *cores); err != nil {
		fmt.Fprintln(os.Stderr, "numasim:", err)
		os.Exit(2)
	}

	printHardware(numamig.New(numamig.Config{Nodes: *nodes, CoresPerNode: *cores}))
}

// checkShape rejects the machine shapes topology.Grid cannot build, so
// a bad flag gets one line and exit status 2 instead of a panic or a
// machine without CPUs.
func checkShape(nodes, cores int) error {
	if nodes < 1 || nodes > topology.MaxNodes {
		return fmt.Errorf("-nodes %d out of range (want 1..%d)", nodes, topology.MaxNodes)
	}
	if cores < 1 {
		return fmt.Errorf("-cores %d out of range (want at least 1)", cores)
	}
	return nil
}

func printHardware(sys *numamig.System) {
	m := sys.Machine
	fmt.Printf("available: %d nodes (0-%d)\n", m.NumNodes(), m.NumNodes()-1)
	for _, n := range m.Nodes {
		fmt.Printf("node %d cpus:", n.ID)
		for _, c := range n.Cores {
			fmt.Printf(" %d", c)
		}
		fmt.Printf("\nnode %d size: %d MB (L3 %d KB shared)\n",
			n.ID, n.MemBytes>>20, n.L3Bytes>>10)
	}
	fmt.Println("node distances:")
	fmt.Print("node ")
	for j := range m.Nodes {
		fmt.Printf("%4d", j)
	}
	fmt.Println()
	for i := range m.Nodes {
		fmt.Printf("%4d:", i)
		for j := range m.Nodes {
			fmt.Printf("%4d", m.Distance(topology.NodeID(i), topology.NodeID(j)))
		}
		fmt.Println()
	}
	fmt.Println("interconnect links:")
	for _, l := range m.Links {
		fmt.Printf("  link %d: node %d <-> node %d\n", l.ID, l.A, l.B)
	}
}
