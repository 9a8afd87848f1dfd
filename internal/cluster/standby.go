package cluster

import (
	"fmt"

	"zapc/internal/netstack"
	"zapc/internal/standby"
	"zapc/internal/supervisor"
)

// standbyIPBase is where standby transport endpoints are allocated.
// Job VIPs grow upward from 10.0.0.1; the 10.254/16 block keeps the
// replication plane's addresses out of their way.
const standbyIPBase netstack.IP = 0x0afe0001

// StandbyConfig is AttachStandby's argument, with nothing left to set:
// the standby node has the cluster's first node's CPU count, and the
// plane's port and stall timeout are standby's constants.
type StandbyConfig struct{}

// AttachStandby adds a spare node to the cluster, builds a warm-standby
// replication plane on it, and attaches the plane to the supervisor:
// every committed generation then streams to the standby, retention
// respects its acknowledgement watermark, and failover promotes its
// shadow state instead of reading the chain back from the store. Call
// it after Supervise (and after any store wrapping like EnableTracing)
// so the plane reads the same store the supervisor commits to.
func (c *Cluster) AttachStandby(sup *supervisor.Supervisor, _ StandbyConfig) (*standby.Plane, error) {
	if sup == nil {
		return nil, fmt.Errorf("cluster: attach standby: nil supervisor")
	}
	node := c.AddNodes(1, c.Nodes[0].CPUs())[0]
	if c.nextStandbyIP == 0 {
		c.nextStandbyIP = standbyIPBase
	}
	clientIP := c.nextStandbyIP
	serverIP := c.nextStandbyIP + 1
	c.nextStandbyIP += 2
	plane, err := standby.New(c.W, c.Net, node, c.Mgr.Store(), clientIP, serverIP)
	if err != nil {
		return nil, err
	}
	plane.SetTracer(c.tr, c.reg)
	sup.SetReplica(plane)
	return plane, nil
}
