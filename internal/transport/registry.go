// The framed-TCP face of the fleet control plane (internal/registry): a
// merger listens with ServeRegistry, nodes dial with DialRegistry and
// speak the Register / Heartbeat / DeltaPush frames defined in Frame.
// Every control frame is answered on the same connection — an ack with
// an empty Err, or the control-plane error string, which the client maps
// back to the registry sentinels so announcers can react by kind. The
// listener also answers snapshot requests with the registry's *merged*
// state (authenticated when the registry holds a token), so a mid-tier
// merger is pollable exactly like a node.
package transport

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"idldp/internal/registry"
	"idldp/internal/varpack"
)

// ControlPlane is what a registry listener dispatches to; satisfied by
// *registry.Registry.
type ControlPlane interface {
	Register(registry.RegisterRequest) (registry.RegisterReply, error)
	HandleHeartbeat(registry.Heartbeat) error
	Push(registry.Push) error
	VerifySnapshot(node string, ts int64, mac []byte) error
	Counts() ([]int64, int64)
	Bits() int
}

// RegistryServer accepts control-plane connections for one registry.
type RegistryServer struct {
	lis net.Listener
	reg ControlPlane

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// ServeRegistry listens on addr and dispatches control-plane frames to
// reg. Close stops the listener and live connections; the registry
// itself is not owned and keeps running.
func ServeRegistry(addr string, reg ControlPlane) (*RegistryServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return ServeRegistryListener(lis, reg), nil
}

// ServeRegistryListener dispatches control-plane frames arriving on an
// already-open listener — the hook for wrapping the accept path (fault
// injection, custom sockets). Ownership of lis passes to the server.
func ServeRegistryListener(lis net.Listener, reg ControlPlane) *RegistryServer {
	s := &RegistryServer{lis: lis, reg: reg, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listening address.
func (s *RegistryServer) Addr() string { return s.lis.Addr().String() }

func (s *RegistryServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *RegistryServer) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := newFrameReader(conn, 0)
	w := frameWriter{w: conn}
	for {
		// Control frames are low-rate and the registry keeps their slices
		// (packed deltas, MACs): a fresh Frame per frame, no reuse.
		var f Frame
		if err := r.read(&f); err != nil {
			return
		}
		var reply Frame
		switch f.Kind {
		case FrameRegister:
			grant, err := s.reg.Register(registry.RegisterRequest{
				Name: f.Node, Bits: f.Bits, Kind: f.Role, TimeNano: f.TimeNano, MAC: f.MAC,
			})
			reply = Frame{Kind: FrameRegisterAck}
			if err != nil {
				reply.Err = err.Error()
			} else {
				reply.Session = grant.Session
				reply.HeartbeatNano = int64(grant.HeartbeatEvery)
				reply.Bits = grant.Bits
			}
		case FrameHeartbeat:
			err := s.reg.HandleHeartbeat(registry.Heartbeat{
				Name: f.Node, Session: f.Session, TimeNano: f.TimeNano, MAC: f.MAC,
				Telemetry: f.Packed,
			})
			reply = ackFrame(err)
		case FrameDeltaPush:
			err := s.reg.Push(registry.Push{
				Name: f.Node, Session: f.Session, TimeNano: f.TimeNano, MAC: f.MAC,
				Frame: registry.PushFrame{Seq: f.Seq, Resync: f.Resync, Packed: f.Packed, DN: f.DN, N: f.N, Trace: f.Trace},
			})
			reply = ackFrame(err)
		case FrameSnapshotRequest:
			if err := s.reg.VerifySnapshot(f.Node, f.TimeNano, f.MAC); err != nil {
				reply = ackFrame(err)
				break
			}
			counts, n := s.reg.Counts()
			reply = Frame{Kind: FrameSnapshot, N: n, Bits: s.reg.Bits()}
			if f.AcceptPacked {
				reply.Packed = varpack.Pack(counts)
			} else {
				reply.Counts = counts
			}
		default:
			return
		}
		if w.send(&reply) != nil {
			return
		}
	}
}

func ackFrame(err error) Frame {
	if err != nil {
		return Frame{Kind: FrameAck, Err: err.Error()}
	}
	return Frame{Kind: FrameAck}
}

// Close stops the listener and closes live connections.
func (s *RegistryServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.lis.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// DialControlPlane maps a merger target, "tcp://host:port" or bare
// "host:port", to an AnnounceConfig dialer. Any other scheme is refused
// here, when the facade or a CLI starts, rather than dialed as an
// address inside the announcer's retry loop.
func DialControlPlane(target string) (func(ctx context.Context) (registry.Conn, error), error) {
	addr, tcp := strings.CutPrefix(target, "tcp://")
	if addr == "" || !tcp && strings.Contains(target, "://") {
		return nil, fmt.Errorf("transport: unsupported scheme in merger target %q (want tcp://host:port)", target)
	}
	return func(ctx context.Context) (registry.Conn, error) { return DialRegistry(ctx, addr) }, nil
}

// RegistryConn is the node-side control-plane connection; it implements
// registry.Conn, so registry.Announce drives it directly.
type RegistryConn struct {
	mu   sync.Mutex
	conn net.Conn
	w    frameWriter
	r    *frameReader
}

// DialRegistry connects to a merger's control plane at addr.
func DialRegistry(ctx context.Context, addr string) (*RegistryConn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return NewRegistryConn(conn), nil
}

// NewRegistryConn speaks the control-plane protocol over an
// already-established connection — the hook for interposing wrapped
// conns (fault injection, tunnels) between announcer and merger.
func NewRegistryConn(conn net.Conn) *RegistryConn {
	return &RegistryConn{conn: conn, w: frameWriter{w: conn}, r: newFrameReader(conn, 0)}
}

// roundTrip sends one frame and decodes the reply, bounded by the
// context deadline.
func (c *RegistryConn) roundTrip(ctx context.Context, f Frame) (Frame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Time{}
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		return Frame{}, fmt.Errorf("transport: %w", err)
	}
	var reply Frame
	if err := exchange(&c.w, c.r, &f, &reply); err != nil {
		return Frame{}, err
	}
	return reply, nil
}

// Register implements registry.Conn.
func (c *RegistryConn) Register(ctx context.Context, req registry.RegisterRequest) (registry.RegisterReply, error) {
	reply, err := c.roundTrip(ctx, Frame{
		Kind: FrameRegister, Node: req.Name, Bits: req.Bits, Role: req.Kind,
		TimeNano: req.TimeNano, MAC: req.MAC,
	})
	if err != nil {
		return registry.RegisterReply{}, err
	}
	if reply.Kind != FrameRegisterAck {
		return registry.RegisterReply{}, fmt.Errorf("transport: unexpected frame kind %d in register reply", reply.Kind)
	}
	if reply.Err != "" {
		return registry.RegisterReply{}, registry.Errs(reply.Err)
	}
	return registry.RegisterReply{
		Session:        reply.Session,
		HeartbeatEvery: time.Duration(reply.HeartbeatNano),
		Bits:           reply.Bits,
	}, nil
}

// Heartbeat implements registry.Conn.
func (c *RegistryConn) Heartbeat(ctx context.Context, hb registry.Heartbeat) error {
	return c.ack(ctx, Frame{
		Kind: FrameHeartbeat, Node: hb.Name, Session: hb.Session, TimeNano: hb.TimeNano, MAC: hb.MAC,
		Packed: hb.Telemetry,
	})
}

// Push implements registry.Conn.
func (c *RegistryConn) Push(ctx context.Context, p registry.Push) error {
	return c.ack(ctx, Frame{
		Kind: FrameDeltaPush, Node: p.Name, Session: p.Session, TimeNano: p.TimeNano, MAC: p.MAC,
		Seq: p.Frame.Seq, Resync: p.Frame.Resync, Packed: p.Frame.Packed, DN: p.Frame.DN, N: p.Frame.N,
		Trace: p.Frame.Trace,
	})
}

func (c *RegistryConn) ack(ctx context.Context, f Frame) error {
	reply, err := c.roundTrip(ctx, f)
	if err != nil {
		return err
	}
	if reply.Kind != FrameAck {
		return fmt.Errorf("transport: unexpected frame kind %d in ack", reply.Kind)
	}
	if reply.Err != "" {
		return registry.Errs(reply.Err)
	}
	return nil
}

// Close implements registry.Conn.
func (c *RegistryConn) Close() error { return c.conn.Close() }
