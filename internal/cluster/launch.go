package cluster

import (
	"fmt"
	"os"
)

// Cluster bundles a running router with the shard subprocesses it fronts.
type Cluster struct {
	Router *Router
	Procs  []*ShardProc
}

// LaunchOpts configures Launch.
type LaunchOpts struct {
	// Bin is the shard executable ("" ⇒ os.Executable(): any HFI binary
	// that checks IsShardProc first re-execs itself as its own shards).
	Bin string
	// N is the shard count.
	N int
	// Shard is the per-shard spec template; Name/AddrFile are filled in
	// per member and Seed is offset by the member index so same-tenant
	// schedules differ across shards.
	Shard ShardSpec
	// Router is the routing policy.
	Router Config
}

// Launch spawns N shards, completes their port handshakes, registers them
// with a fresh router, and starts the health loop. On any spawn failure
// the already-started members are killed.
func Launch(o LaunchOpts) (*Cluster, error) {
	bin := o.Bin
	if bin == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		bin = exe
	}
	if o.N <= 0 {
		o.N = 3
	}
	var procs []*ShardProc
	for i := 0; i < o.N; i++ {
		spec := o.Shard
		spec.Name = fmt.Sprintf("shard-%d", i)
		spec.Seed += int64(i)
		if spec.WorldSeed == 0 {
			spec.WorldSeed = 1
		}
		p, err := Spawn(bin, spec)
		if err != nil {
			for _, q := range procs {
				q.Kill()
			}
			return nil, err
		}
		procs = append(procs, p)
	}
	rt := NewRouter(o.Router)
	for _, p := range procs {
		rt.AddShard(p.Spec.Name, p.Addr, p)
	}
	rt.Start()
	return &Cluster{Router: rt, Procs: procs}, nil
}

// Proc returns the subprocess named name, or nil.
func (c *Cluster) Proc(name string) *ShardProc {
	for _, p := range c.Procs {
		if p.Spec.Name == name {
			return p
		}
	}
	return nil
}

// Close stops the router loop and shuts every still-running shard down via
// its drain path (Stop is safe on already-killed members).
func (c *Cluster) Close() {
	c.Router.Stop()
	for _, p := range c.Procs {
		p.Stop()
	}
}
