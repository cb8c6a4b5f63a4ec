// Bank runs a replicated-ledger scenario on the simulator: process 0 is a
// bank server applying transfer requests from four client processes, all
// hosted by the FBL protocol. We crash the server mid-stream; message
// logging plus deterministic replay reconstruct its ledger exactly — no
// transfer is lost or applied twice — while the clients keep submitting.
package main

import (
	"fmt"
	"os"
	"time"

	"rollrec"
)

func main() {
	c := rollrec.NewCluster(rollrec.Config{
		N:               5,
		F:               2,
		Seed:            3,
		Style:           rollrec.NonBlocking,
		App:             rollrec.ClientServer(1_000_000, 128, int64(2*time.Millisecond)),
		CheckpointEvery: rollrec.DefaultCheckpointEvery,
		StatePad:        256 << 10,
	})
	fmt.Println("bank running: 4 clients stream transfers to the server (p0)")

	const crashAt = 20 * time.Second
	c.Run(crashAt)
	before := applied(c)
	fmt.Printf("server has applied %d transfers — crashing it now\n", before)
	c.Crash(crashAt, 0)

	// Run until the server has recovered and applied transfers past the
	// ones it held when it crashed.
	var after uint64
	for t := crashAt + time.Second; t <= 2*time.Minute; t += time.Second {
		c.Run(t)
		if tr := c.Metrics(0).CurrentRecovery(); tr != nil && tr.ReplayedAt != 0 {
			if a := applied(c); a > before {
				after = a
				break
			}
		}
	}
	if after == 0 {
		fmt.Println("server never resumed — recovery failed")
		os.Exit(1)
	}
	tr := c.Metrics(0).CurrentRecovery()
	fmt.Printf("server recovered (crash → live in %v of modeled time) and kept going: %d transfers applied\n",
		time.Duration(tr.ReplayedAt-tr.CrashedAt).Round(time.Millisecond), after)
	if errs := c.Check(); len(errs) != 0 {
		fmt.Println("invariants violated:")
		for _, err := range errs {
			fmt.Println(" ", err)
		}
		os.Exit(1)
	}
	fmt.Println("the ledger was rebuilt from the clients' volatile message logs: nothing lost, nothing doubled")
}

// applied is the number of transfers the server's ledger holds (0 while
// the server is down).
func applied(c *rollrec.Cluster) uint64 {
	if p := c.Proc(0); p != nil {
		if cs, ok := p.App().(interface{ Applied() uint64 }); ok {
			return cs.Applied()
		}
	}
	return 0
}
