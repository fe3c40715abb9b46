package server

// Client is the tenant side of the session wire: it implements the
// workloads.Session surface over a gateway connection, so any workload
// written against that interface runs unmodified through the gateway.
//
// Numeric-mode workloads initialize and inspect arrays through
// Buffer(id); a remote client can't alias the controller's host copy,
// so each array gets a local mirror buffer. HostWrite ships the mirror
// to the gateway; HostRead refreshes it. Between the two, the mirror is
// simply the tenant's private staging memory — exactly the host-code
// role it plays in-process.
//
// A Client is not safe for concurrent use; one client program drives it
// sequentially, like a CUDA stream. Open several clients for
// concurrency — that's the gateway's whole point.

import (
	"fmt"
	"time"

	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/sim"
	"grout/internal/transport"
	"grout/internal/workloads"
)

// Client is one tenant session on a gateway.
type Client struct {
	conn    *transport.SessionConn
	name    string
	mirrors map[dag.ArrayID]*kernels.Buffer
	// deferred holds an error a non-fallible call (Elapsed) had to
	// swallow; the next Sync reports it instead of silently losing it.
	deferred error
	closed   bool

	// pace is the client's adaptive launch pacing from the gateway's
	// backpressure advisories: it tracks the latest suggested pause and
	// halves whenever a launch ack arrives without one, so the client
	// slows while the gateway runs hot and speeds back up as the backlog
	// clears. ignoreBP (SetHonorBackpressure) disables the slowdown —
	// the behavior of a hostile or legacy client, which instead fills
	// its bounded queue and blocks on its own socket.
	pace     time.Duration
	ignoreBP bool
}

// minPace is the decay floor: a pace below it snaps to zero.
const minPace = 50 * time.Microsecond

// SetHonorBackpressure chooses whether Launch honors the gateway's
// backpressure advisories by pacing itself (the default). Passing false
// models a hostile over-limit tenant: launches go out full tilt and the
// gateway's queue bound plus token bucket do all the throttling.
func (c *Client) SetHonorBackpressure(honor bool) {
	c.ignoreBP = !honor
	if c.ignoreBP {
		c.pace = 0
	}
}

// Pace reports the client's current backpressure pacing (0 = full
// speed); mostly for tests and diagnostics.
func (c *Client) Pace() time.Duration { return c.pace }

// Backpressure polls the gateway's flow-control advisory for this
// tenant and folds it into the client's pacing.
func (c *Client) Backpressure() (*transport.Backpressure, error) {
	resp, err := c.call(&transport.SessionRequest{Kind: transport.SessBackpressure})
	if err != nil {
		return nil, err
	}
	c.observeBP(resp.BP)
	return resp.BP, nil
}

// observeBP folds one ack's advisory (or its absence) into the pace.
func (c *Client) observeBP(bp *transport.Backpressure) {
	if c.ignoreBP {
		return
	}
	if bp != nil && bp.Pause > 0 {
		// Move halfway toward the gateway's suggestion — adaptive, so a
		// single outlier advisory doesn't park the client.
		c.pace = (c.pace + bp.Pause) / 2
		if c.pace < bp.Pause/2 {
			c.pace = bp.Pause / 2
		}
		return
	}
	c.pace /= 2
	if c.pace < minPace {
		c.pace = 0
	}
}

// Dial opens a tenant session on the gateway at addr. name labels the
// tenant in the gateway's metrics; empty picks a server-assigned one.
// dialTimeout zero means transport.DefaultDialTimeout, negative
// disables; callTimeout bounds each round trip the same way (reads and
// synchronization legitimately take long — prefer generous values).
func Dial(addr, name string, dialTimeout, callTimeout time.Duration) (*Client, error) {
	conn, err := transport.DialSession(addr, dialTimeout, callTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, mirrors: make(map[dag.ArrayID]*kernels.Buffer)}
	resp, err := c.call(&transport.SessionRequest{Kind: transport.SessOpen, Name: name})
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	c.name = resp.Name
	return c, nil
}

// Name reports the tenant name the gateway assigned.
func (c *Client) Name() string { return c.name }

// call runs one round trip and folds the remote error in.
func (c *Client) call(req *transport.SessionRequest) (*transport.SessionResponse, error) {
	if c.closed {
		return nil, fmt.Errorf("grout: session client is closed")
	}
	resp, err := c.conn.Call(req)
	if err != nil {
		return nil, err
	}
	return resp, resp.Ok()
}

// NewArray implements workloads.Session.
func (c *Client) NewArray(kind memmodel.ElemKind, n int64) (dag.ArrayID, error) {
	resp, err := c.call(&transport.SessionRequest{Kind: transport.SessNewArray, Elem: kind, Len: n})
	if err != nil {
		return 0, err
	}
	c.mirrors[resp.Array] = kernels.NewBuffer(kind, int(n))
	return resp.Array, nil
}

// Launch implements workloads.Session. The gateway acknowledges the
// enqueue; a failure after that poisons the session and surfaces on the
// next operation. When the ack carries a backpressure advisory the
// client paces itself before returning (unless SetHonorBackpressure
// turned that off), adaptively slowing instead of filling its queue and
// blocking on the socket.
func (c *Client) Launch(kernel string, grid, block int, args ...core.ArgRef) error {
	resp, err := c.call(&transport.SessionRequest{Kind: transport.SessLaunch,
		Inv: core.Invocation{Kernel: kernel, Grid: grid, Block: block, Args: args}})
	if err != nil {
		return err
	}
	c.observeBP(resp.BP)
	if c.pace > 0 {
		time.Sleep(c.pace)
	}
	return nil
}

// HostRead implements workloads.Session: it synchronizes the array on
// the gateway and refreshes the local mirror in place (so references
// from Buffer stay valid).
func (c *Client) HostRead(id dag.ArrayID) error {
	resp, err := c.call(&transport.SessionRequest{Kind: transport.SessHostRead, Array: id})
	if err != nil {
		return err
	}
	mirror := c.mirrors[id]
	if mirror == nil || resp.Data == nil {
		return nil
	}
	return mirror.SetRawBytes(0, resp.Data.RawBytes())
}

// HostWrite implements workloads.Session: it ships the mirror's
// contents as the array's new authoritative data.
func (c *Client) HostWrite(id dag.ArrayID) error {
	mirror := c.mirrors[id]
	if mirror == nil {
		return fmt.Errorf("grout: host write of unknown array %d", id)
	}
	_, err := c.call(&transport.SessionRequest{Kind: transport.SessHostWrite, Array: id, Data: mirror})
	return err
}

// Buffer implements workloads.Session: the local mirror.
func (c *Client) Buffer(id dag.ArrayID) workloads.BufferLike {
	if b := c.mirrors[id]; b != nil {
		return b
	}
	return nil
}

// Free implements workloads.Session.
func (c *Client) Free(id dag.ArrayID) error {
	if _, err := c.call(&transport.SessionRequest{Kind: transport.SessFree, Array: id}); err != nil {
		return err
	}
	delete(c.mirrors, id)
	return nil
}

// Elapsed implements workloads.Session. It is a synchronization point:
// the gateway flushes the session's queue and drains the controller to
// time-stamp it, so an error-free return also means every prior launch
// dispatched cleanly. The interface gives Elapsed no error return, so a
// failed round trip (sticky session poison, transport loss) yields 0 —
// but the error is retained and reported by the next Sync. Callers
// recording makespans must pair Elapsed with Sync to tell a genuine
// zero from a failed session.
func (c *Client) Elapsed() sim.VirtualTime {
	resp, err := c.call(&transport.SessionRequest{Kind: transport.SessElapsed})
	if err != nil {
		if c.deferred == nil {
			c.deferred = err
		}
		return 0
	}
	return sim.VirtualTime(resp.Elapsed)
}

// Sync waits until every launch the session submitted has dispatched,
// reporting the session's sticky error, if any — including one a prior
// Elapsed had to swallow.
func (c *Client) Sync() error {
	if err := c.deferred; err != nil {
		c.deferred = nil
		return err
	}
	_, err := c.call(&transport.SessionRequest{Kind: transport.SessElapsed})
	return err
}

// BuildKernel compiles a mini-CUDA kernel fleet-wide and returns the
// name to launch it by.
func (c *Client) BuildKernel(src, signature string) (string, error) {
	resp, err := c.call(&transport.SessionRequest{Kind: transport.SessBuildKernel, Src: src, Signature: signature})
	if err != nil {
		return "", err
	}
	return resp.Name, nil
}

// ShardInfo reports which controller shard serves this tenant and the
// gateway's shard count (0 of 1 on an unsharded gateway).
func (c *Client) ShardInfo() (shard, count int, err error) {
	resp, err := c.call(&transport.SessionRequest{Kind: transport.SessShardInfo})
	if err != nil {
		return 0, 0, err
	}
	return resp.Shard, resp.ShardCount, nil
}

// Ping round-trips an empty frame (liveness checks).
func (c *Client) Ping() error {
	_, err := c.call(&transport.SessionRequest{Kind: transport.SessPing})
	return err
}

// Close ends the session: the gateway frees the tenant's arrays and
// drops its queued launches. Idempotent.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	// Best-effort goodbye, acked once the gateway has torn the session
	// down; it tears down on disconnect anyway.
	_, _ = c.conn.Call(&transport.SessionRequest{Kind: transport.SessClose})
	return c.conn.Close()
}
