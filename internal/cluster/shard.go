package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"hfi/internal/host"
	"hfi/internal/httpfront"
)

// ShardEnv is the environment variable that turns any HFI binary into a
// shard: when set, main (or TestMain) must hand control to ShardMain
// before parsing flags. The value is a JSON ShardSpec. This is how the
// router spawns real hfihttpd backends without needing a prebuilt binary
// on disk — it re-execs its own executable (or the test binary re-execs
// itself) with the spec in the environment.
const ShardEnv = "HFI_SHARD_CONFIG"

// ShardSpec configures one shard subprocess: identity, the rendezvous
// file for the port handshake, and the host knobs the shard serves with.
type ShardSpec struct {
	Name string `json:"name"`
	// AddrFile is where the shard writes its bound loopback address
	// (atomically: tmp + rename) once listening — the parent polls it.
	AddrFile string `json:"addr_file"`

	Workers        int    `json:"workers"`
	QueueDepth     int    `json:"queue_depth"`
	Policy         string `json:"policy"` // "shed" (default) | "block"
	Fuel           uint64 `json:"fuel"`
	FuelPerSecond  uint64 `json:"fuel_per_second"`
	DispatchWallUs int64  `json:"dispatch_wall_us"`

	// BreakerWindow > 0 enables per-tenant circuit breakers — the
	// degradation signal hedged retries key on.
	BreakerWindow     int `json:"breaker_window"`
	BreakerMinSamples int `json:"breaker_min_samples"`

	Seed      int64 `json:"seed"`
	WorldSeed int64 `json:"world_seed"`
}

// hostConfig translates the spec into the shard's host.Config.
func (sp ShardSpec) hostConfig() (host.Config, error) {
	pol, err := host.ParsePolicy(sp.Policy, host.PolicyShed)
	if err != nil {
		return host.Config{}, err
	}
	return host.Config{
		Workers: sp.Workers, QueueDepth: sp.QueueDepth, Policy: pol,
		Fuel: sp.Fuel, FuelPerSecond: sp.FuelPerSecond,
		DispatchWall: time.Duration(sp.DispatchWallUs) * time.Microsecond,
		Retry:        host.RetryConfig{Max: 2},
		Breaker:      host.BreakerConfig{Window: sp.BreakerWindow, MinSamples: sp.BreakerMinSamples},
		Seed:         sp.Seed,
	}, nil
}

// IsShardProc reports whether this process was spawned as a shard.
func IsShardProc() bool { return os.Getenv(ShardEnv) != "" }

// ShardMain runs the shard role to completion and returns the process
// exit code. It binds a fresh loopback port, publishes it through
// AddrFile, serves the default tenant registry, and drains when its
// parent goes away (stdin EOF — the pipe the parent holds open for the
// shard's lifetime), finishing queued and in-flight work with real
// outcomes before exiting.
func ShardMain() int {
	var spec ShardSpec
	if err := json.Unmarshal([]byte(os.Getenv(ShardEnv)), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "shard: bad %s: %v\n", ShardEnv, err)
		return 2
	}
	// A spec this shard cannot honour fails the spawn handshake (no
	// address is ever published) instead of serving with other settings.
	cfg, err := spec.hostConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "shard:", err)
		return 2
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "shard:", err)
		return 1
	}
	front := httpfront.New(host.New(cfg), httpfront.DefaultRegistry(spec.WorldSeed))
	front.Shard = spec.Name
	hs := &http.Server{Handler: front.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	if err := publishAddr(spec.AddrFile, ln.Addr().String()); err != nil {
		fmt.Fprintln(os.Stderr, "shard:", err)
		return 1
	}

	// Parent-death watch: the spawner keeps our stdin pipe open; EOF
	// means it exited (cleanly or not) and nobody routes to us anymore.
	gone := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(gone)
	}()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "shard:", err)
		return 1
	case <-gone:
	}
	front.BeginDrain()
	front.Host().Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	return 0
}

func publishAddr(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ShardProc is one spawned shard subprocess.
type ShardProc struct {
	Spec ShardSpec
	Addr string // bound loopback address, from the AddrFile handshake

	cmd    *exec.Cmd
	stdin  io.WriteCloser
	dir    string        // holds the addr file
	exited chan struct{} // closed once the process is reaped
}

// Spawn launches bin as a shard with spec (AddrFile is filled in),
// completes the port handshake, and returns once the shard is listening.
// bin is typically os.Executable() — any HFI binary that checks
// IsShardProc first will do.
func Spawn(bin string, spec ShardSpec) (*ShardProc, error) {
	dir, err := os.MkdirTemp("", "hfi-shard-"+spec.Name+"-")
	if err != nil {
		return nil, err
	}
	spec.AddrFile = filepath.Join(dir, "addr")
	raw, err := json.Marshal(spec)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cmd := exec.Command(bin)
	cmd.Env = append(os.Environ(), ShardEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("spawn shard %s: %w", spec.Name, err)
	}
	p := &ShardProc{Spec: spec, cmd: cmd, stdin: stdin, dir: dir, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if raw, err := os.ReadFile(spec.AddrFile); err == nil && len(raw) > 0 {
			p.Addr = string(raw)
			return p, nil
		}
		select {
		case <-p.exited:
			os.RemoveAll(dir)
			return nil, fmt.Errorf("shard %s exited during handshake", spec.Name)
		default:
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			<-p.exited
			os.RemoveAll(dir)
			return nil, fmt.Errorf("shard %s: handshake timeout", spec.Name)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Kill SIGKILLs the shard (the chaos shard-kill class) and reaps it.
func (p *ShardProc) Kill() {
	p.cmd.Process.Kill()
	<-p.exited
	p.cleanup()
}

// Stop closes the parent-death pipe (triggering the shard's drain path),
// waits briefly for a clean exit, and kills on timeout.
func (p *ShardProc) Stop() {
	p.stdin.Close()
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
	p.cleanup()
}

func (p *ShardProc) cleanup() {
	if p.dir != "" {
		os.RemoveAll(p.dir)
		p.dir = ""
	}
}
