// TCP: the same join over real sockets. Two dataset servers listen on
// loopback TCP ports (in a deployment they would be separate hosts); the
// device dials both, runs SrJoin, and the byte accounting is identical
// to the in-process transport — the metering wraps the frames, not the
// transport.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/netsim"
	"repro/internal/server"
)

func main() {
	robjs := dataset.GaussianClusters(800, 4, 250, dataset.World, 31)
	sobjs := dataset.GaussianClusters(800, 4, 250, dataset.World, 32)

	// Start two TCP servers, as separate services would.
	srvR, err := netsim.ListenAndServe("127.0.0.1:0", server.New("maps.example", robjs))
	if err != nil {
		log.Fatal(err)
	}
	defer srvR.Close()
	srvS, err := netsim.ListenAndServe("127.0.0.1:0", server.New("guide.example", sobjs))
	if err != nil {
		log.Fatal(err)
	}
	defer srvS.Close()
	fmt.Printf("serving R on %s, S on %s\n", srvR.Addr(), srvS.Addr())

	// The mobile device dials both servers over metered links. Real links
	// lose frames; the retry policy re-dials and re-issues the idempotent
	// query (retransmissions are metered like any frame).
	f, err := fleet.Dial(fleet.Config{Buffer: 800, Retry: client.DefaultRetry()}, srvR.Addr(), srvS.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	env := f.NewEnv(f.R, f.S)
	res, err := core.SrJoin{}.Run(context.Background(), env, core.Spec{Kind: core.Distance, Eps: 150})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("srJoin over TCP: %d pairs, %d wire bytes, %d queries\n",
		len(res.Pairs), res.Stats.TotalBytes(), res.Stats.TotalQueries())
}
